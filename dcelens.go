// Package dcelens finds missed compiler optimizations through the lens of
// dead code elimination, reproducing Theodoridis, Rigger & Su,
// "Finding Missed Optimizations through the Lens of Dead Code Elimination"
// (ASPLOS 2022).
//
// The package is a facade over the full system: a MiniC frontend and
// reference interpreter, a Csmith-style program generator, an SSA
// optimizing middle-end with two compiler personalities (gcc-sim and
// llvm-sim) plus their synthetic version histories, the marker
// instrumentation and differential-testing engine, a test-case reducer,
// and a regression bisector. See DESIGN.md for the architecture and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Quick start:
//
//	prog := dcelens.Generate(42)                       // random program
//	ins, _ := dcelens.Instrument(prog)                 // add DCE markers
//	truth, _ := dcelens.GroundTruth(ins)               // execute: dead/alive
//	gcc, _ := dcelens.Compile(ins, dcelens.GCC(dcelens.O3))
//	llvm, _ := dcelens.Compile(ins, dcelens.LLVM(dcelens.O3))
//	missed := dcelens.DiffMissed(gcc, llvm, truth)     // gcc's missed markers
package dcelens

import (
	"io"

	"dcelens/internal/ast"
	"dcelens/internal/bisect"
	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/history"
	"dcelens/internal/instrument"
	"dcelens/internal/metrics"
	"dcelens/internal/monitor"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/reduce"
	"dcelens/internal/remark"
	"dcelens/internal/report"
	"dcelens/internal/sched"
	"dcelens/internal/sema"
	"dcelens/internal/span"
	"dcelens/internal/trace"
)

// Program is a parsed, type-checked MiniC program.
type Program = ast.Program

// Instrumented is a program with optimization markers and their table.
type Instrumented = instrument.Program

// Marker identifies one inserted optimization marker.
type Marker = instrument.Marker

// Truth is the executed ground truth: which markers are alive or dead.
type Truth = core.Truth

// Compilation is a compiled program plus its surviving-marker set.
// Compile, Analyze and their traced and remarked forms return it with the
// optimized Module; the compilations a Campaign holds have a nil Module,
// and VerifyAgainstTruth recompiles such a unit to check it.
type Compilation = core.Compilation

// MarkerCFG is the interprocedural marker graph used for primary-marker
// filtering (paper §3.2).
type MarkerCFG = core.MarkerCFG

// Compiler is a fully-assembled compiler configuration.
type Compiler = pipeline.Config

// Level is an optimization level (O0, O1, Os, O2, O3).
type Level = pipeline.Level

// Optimization levels.
const (
	O0 = pipeline.O0
	O1 = pipeline.O1
	Os = pipeline.Os
	O2 = pipeline.O2
	O3 = pipeline.O3
)

// Personalities.
const (
	PersonalityGCC  = pipeline.GCC
	PersonalityLLVM = pipeline.LLVM
)

// GenConfig configures the random program generator.
type GenConfig = cgen.Config

// ---------------------------------------------------------------------------
// Programs

// Parse parses and type-checks MiniC source.
func Parse(src string) (*Program, error) {
	return ParseMetered(src, nil)
}

// ParseMetered is Parse with frontend telemetry: lexing, parsing, and
// semantic analysis are timed into reg's phase.lex, phase.parse, and
// phase.sema histograms. A nil registry collects nothing.
func ParseMetered(src string, reg *MetricsRegistry) (*Program, error) {
	prog, err := parser.ParseMetered(src, reg)
	if err != nil {
		return nil, err
	}
	stop := reg.Time(metrics.PhaseSema)
	err = sema.Check(prog)
	stop()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// Print renders a program back to MiniC source.
func Print(p *Program) string { return ast.Print(p) }

// Generate produces a random, deterministic, input-free MiniC program from
// a seed, with the default Csmith-like configuration.
func Generate(seed int64) *Program { return cgen.Generate(cgen.DefaultConfig(seed)) }

// GenerateWith produces a random program from an explicit configuration.
func GenerateWith(cfg GenConfig) *Program { return cgen.Generate(cfg) }

// DefaultGenConfig returns the evaluation corpus generator configuration.
func DefaultGenConfig(seed int64) GenConfig { return cgen.DefaultConfig(seed) }

// ---------------------------------------------------------------------------
// Instrumentation and ground truth

// Instrument inserts an optimization marker into every source basic block
// (paper step ①). The input program is not modified.
func Instrument(p *Program) (*Instrumented, error) {
	return instrument.Instrument(p, instrument.Options{})
}

// InstrumentValueChecks implements the paper's §4.4 future-work extension:
// synthesize guaranteed-dead blocks `if (g != C) DCEValueCheckN();` at the
// end of main, with C recorded by execution. A compiler eliminates such a
// check exactly when it can prove the global's final value.
func InstrumentValueChecks(p *Program) (*Instrumented, error) {
	return instrument.InstrumentValueChecks(p)
}

// IsMarker reports whether a function name is an optimization marker.
func IsMarker(name string) bool { return instrument.IsMarker(name) }

// GroundTruth executes the instrumented program and classifies every
// marker as alive (executed) or dead.
func GroundTruth(ins *Instrumented) (*Truth, error) { return core.GroundTruth(ins) }

// BuildMarkerCFG derives the interprocedural marker graph for
// primary-marker filtering.
func BuildMarkerCFG(ins *Instrumented) (*MarkerCFG, error) { return core.BuildMarkerCFG(ins) }

// ---------------------------------------------------------------------------
// Compilers

// GCC returns the gcc-sim personality at its latest version.
func GCC(lvl Level) *Compiler { return pipeline.New(pipeline.GCC, lvl) }

// LLVM returns the llvm-sim personality at its latest version.
func LLVM(lvl Level) *Compiler { return pipeline.New(pipeline.LLVM, lvl) }

// CompilerAt returns a personality at a historical version (the first
// `commits` entries of its history applied).
func CompilerAt(p pipeline.Personality, lvl Level, commits int) *Compiler {
	return pipeline.AtCommit(p, lvl, commits)
}

// History returns a personality's synthetic commit history.
func History(p pipeline.Personality) []pipeline.Commit { return pipeline.History(p) }

// Compile lowers, optimizes, and code-generates the instrumented program,
// scanning the assembly for surviving markers (paper steps ②-③).
func Compile(ins *Instrumented, c *Compiler) (*Compilation, error) {
	return core.Compile(ins, c, core.Hooks{})
}

// DiffMissed returns the dead markers target keeps but reference
// eliminates: feasible missed optimizations of target (paper §3.1).
func DiffMissed(target, reference *Compilation, t *Truth) []string {
	return core.DiffMissed(target, reference, t)
}

// Analyze compiles and computes missed plus primary-missed markers.
func Analyze(ins *Instrumented, c *Compiler, t *Truth, g *MarkerCFG) (*core.Analysis, error) {
	return core.Analyze(ins, c, t, g, core.Hooks{})
}

// ---------------------------------------------------------------------------
// Campaigns, reduction, bisection

// CampaignOptions configures a corpus campaign.
type CampaignOptions = corpus.Options

// Campaign is a finished corpus run with statistics and findings.
type Campaign = corpus.Campaign

// Finding is one discovered missed-optimization opportunity.
type Finding = corpus.Finding

// RunCampaign generates a corpus, compiles every program under every
// configuration, and aggregates the paper's statistics. Campaigns run on
// the internal/sched worker pool (CampaignOptions.Workers); every output is
// deterministic in corpus order, so a parallel run's report is
// byte-identical to a serial run's.
func RunCampaign(o CampaignOptions) (*Campaign, error) { return corpus.Run(o) }

// CampaignShard selects a deterministic corpus slice for one process of a
// multi-process campaign (CampaignOptions.Shard, dce-campaign -shard): of
// Count cooperating processes, this one runs the seed indices congruent to
// Index modulo Count.
type CampaignShard = sched.Shard

// ParseShard parses an "index/count" shard spec, e.g. "0/2".
func ParseShard(spec string) (CampaignShard, error) { return sched.ParseShard(spec) }

// MergeCheckpoints recombines the checkpoints of a sharded campaign into
// one Campaign whose report is byte-identical to an unsharded run's
// (dce-report -merge).
func MergeCheckpoints(paths []string) (*Campaign, error) { return corpus.MergeCheckpoints(paths) }

// ---------------------------------------------------------------------------
// Harness: fault tolerance, checkpointing, fault injection

// CampaignFailure is one isolated per-(seed, config) failure: a recovered
// panic (crash), an exceeded step budget (timeout), a semantic divergence
// (miscompile), or an unusable program (infeasible).
type CampaignFailure = harness.Failure

// FailureKind classifies a campaign failure.
type FailureKind = harness.Kind

// Failure kinds.
const (
	FailureCrash      = harness.KindCrash
	FailureTimeout    = harness.KindTimeout
	FailureMiscompile = harness.KindMiscompile
	FailureInfeasible = harness.KindInfeasible
)

// CrashBucket groups campaign failures with the same stack signature.
type CrashBucket = corpus.CrashBucket

// Faults is a deterministic fault-injection plan for a campaign
// (CampaignOptions.Faults): chosen pass instances panic, stall past the
// step budget, or corrupt the IR on chosen seeds.
type Faults = harness.Faults

// ParseFaults parses a fault-injection spec: comma-separated
// kind:pass:seed[:config] entries where kind is panic, stall, or corrupt,
// pass may be "*", and seed may be -1 for any.
func ParseFaults(spec string) (*Faults, error) { return harness.ParseFaults(spec) }

// Checkpoint persists completed campaign seeds so an interrupted campaign
// can resume (CampaignOptions.Checkpoint); a resumed campaign's report is
// byte-identical to an uninterrupted one.
type Checkpoint = harness.Checkpoint

// NewCheckpoint creates a checkpoint writing to path (empty: in-memory).
func NewCheckpoint(path string) *Checkpoint { return harness.NewCheckpoint(path) }

// LoadCheckpoint opens an existing checkpoint file, or a fresh one if the
// file does not exist yet.
func LoadCheckpoint(path string) (*Checkpoint, error) { return harness.LoadCheckpoint(path) }

// ReportFailures renders a campaign's failure taxonomy: per-kind counts
// and the deduplicated crash-bucket table.
func ReportFailures(s *corpus.Stats) string { return report.Failures(s) }

// ReduceOptions bounds reduction effort.
type ReduceOptions = reduce.Options

// ReduceResult is a finished reduction.
type ReduceResult = reduce.Result

// Reduce shrinks a program while the interestingness test keeps holding
// (the C-Reduce role, paper §4.3).
func Reduce(p *Program, interesting func(*Program) bool, o ReduceOptions) *ReduceResult {
	return reduce.Reduce(p, interesting, o)
}

// MissedInterestingness builds the standard reduction oracle: marker still
// dead, target still misses it, reference still eliminates it.
func MissedInterestingness(marker string, target, reference *Compiler) func(*Program) bool {
	return corpus.InterestingnessFor(marker, target, reference)
}

// BisectOutcome is one bisected regression.
type BisectOutcome = bisect.Outcome

// BisectRegression finds the history commit that made the compiler stop
// eliminating the marker at the given level.
func BisectRegression(ins *Instrumented, p pipeline.Personality, lvl Level, marker string) (*BisectOutcome, error) {
	return bisect.Regression(ins, p, lvl, marker)
}

// Categorize aggregates bisection outcomes into the Table 3/4 component
// rows.
func Categorize(outcomes []*BisectOutcome) []bisect.ComponentRow {
	return bisect.Categorize(outcomes)
}

// ---------------------------------------------------------------------------
// Tracing and provenance

// TraceProfile is a compilation's per-pass profile plus marker provenance.
type TraceProfile = trace.Profile

// Provenance maps each eliminated marker to the pass instance that killed
// it.
type Provenance = trace.Provenance

// PassRef identifies one executed pass instance (pass name, schedule
// position, pipeline iteration).
type PassRef = trace.PassRef

// PassAttribution names the pass responsible for eliminating a finding's
// marker in the configuration that succeeds.
type PassAttribution = trace.Attribution

// PassElims is one row of the campaign-wide eliminations-per-pass table.
type PassElims = trace.PassElims

// CompileTraced compiles like Compile with the pipeline observer attached:
// the returned profile records every pass instance's wall time and IR-size
// delta, and attributes each eliminated marker to the pass that killed it.
func CompileTraced(ins *Instrumented, c *Compiler) (*Compilation, *TraceProfile, error) {
	rec := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	comp, err := core.Compile(ins, c, core.Hooks{Trace: rec})
	if err != nil {
		return nil, nil, err
	}
	return comp, rec.Profile(), nil
}

// AnalyzeTraced is Analyze with tracing enabled (Analysis.Trace is set).
func AnalyzeTraced(ins *Instrumented, c *Compiler, t *Truth, g *MarkerCFG) (*core.Analysis, error) {
	rec := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	return core.Analyze(ins, c, t, g, core.Hooks{Trace: rec})
}

// AttributeFinding names the pass instance that eliminates a finding's
// marker in the reference configuration — the trace-based root cause that
// complements BisectRegression (which only works for version regressions).
func AttributeFinding(c *Campaign, f Finding) (*PassAttribution, error) {
	return c.AttributeFinding(f)
}

// EliminationsPerPass aggregates a traced campaign (CampaignOptions.Trace)
// into the eliminations-per-pass table for one personality and level.
func EliminationsPerPass(c *Campaign, p pipeline.Personality, lvl Level) []PassElims {
	return c.EliminationsPerPass(corpus.ConfigKey{Personality: p, Level: lvl})
}

// PassComponent maps a pass name into the compiler-component vocabulary of
// the synthetic histories (Tables 3/4).
func PassComponent(pass string) string { return trace.ComponentOf(pass) }

// ---------------------------------------------------------------------------
// Remarks and explanation

// RemarkProfile is one compilation's optimization-remark reduction: per-pass
// applied/missed/analysis counts, the miss-reason histogram, and each
// surviving marker's nearest-miss chain (CampaignOptions.Remarks,
// dce-campaign -remarks, dce-explain).
type RemarkProfile = remark.Profile

// RemarkChainStep is one decision of a nearest-miss chain: the pass that
// declined to transform, its machine-readable reason code, and the subject
// it was looking at.
type RemarkChainStep = remark.ChainStep

// RemarkSummary aggregates remarks over a seed or a whole job: per-pass
// applied/missed counts plus the miss-reason histogram.
type RemarkSummary = corpus.RemarkSummary

// CompileRemarked compiles like Compile with a remark collector attached:
// every optimizing pass reports what it applied and what it considered but
// rejected (with a reason code), and the returned profile chains the Missed
// decisions relevant to each surviving marker.
func CompileRemarked(ins *Instrumented, c *Compiler) (*Compilation, *RemarkProfile, error) {
	coll := remark.NewCollector(instrument.IsMarker)
	comp, err := core.Compile(ins, c, core.Hooks{Remarks: coll})
	if err != nil {
		return nil, nil, err
	}
	return comp, coll.Profile(), nil
}

// ExplainFinding renders one finding's missed-optimization narrative: the
// finding header plus its nearest-miss chain (campaigns run with
// CampaignOptions.Remarks; dce-explain).
func ExplainFinding(f Finding) string { return report.Explain(f) }

// ExplainFindings renders every finding's narrative, blank-line separated.
func ExplainFindings(fs []Finding) string { return report.ExplainAll(fs) }

// ReportRemarks renders a campaign's remark aggregation: the per-pass
// applied/missed table and the top miss reasons.
func ReportRemarks(s *corpus.Stats) string { return report.Remarks(s) }

// TopMissReasons sorts a miss-reason histogram (RemarkSummary.Reasons, as
// in Stats.Remarks) by descending count; n > 0 keeps the first n rows.
func TopMissReasons(reasons map[string]int, n int) []report.ReasonCount {
	return report.TopReasons(reasons, n)
}

// ---------------------------------------------------------------------------
// Telemetry

// MetricsRegistry is a campaign telemetry registry: counters, gauges, and
// fixed-bucket duration histograms (CampaignOptions.Metrics). All methods
// are nil-safe, so a nil registry disables collection without branching at
// call sites.
type MetricsRegistry = metrics.Registry

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *MetricsRegistry { return metrics.New() }

// NewDeterministicMetrics returns a registry whose rendered reports redact
// wall-clock-derived values, making them byte-identical across identical
// runs (the -metrics=deterministic mode).
func NewDeterministicMetrics() *MetricsRegistry { return metrics.NewDeterministic() }

// EventLog is a structured JSONL campaign event stream with monotonic
// sequence numbers (CampaignOptions.Events, dce-campaign -events). Its
// Journal holds the live tail and Close.
type EventLog = metrics.EventLog

// NewEventLog starts an event log writing JSONL to w.
func NewEventLog(w io.Writer) *EventLog { return metrics.NewEventLog(w) }

// ReportMetrics renders a registry's phase breakdown and campaign-wide
// pass-time table (total/mean/p50/p90/p99 per pass).
func ReportMetrics(reg *MetricsRegistry) string { return report.Metrics(reg) }

// SpanRecorder is a hierarchical span timeline recorder writing Chrome
// trace_event JSON (CampaignOptions.Spans, dce-campaign -trace): job →
// seed → unit → phase → pass spans plus scheduler occupancy, loadable in
// Perfetto and analyzable with dce-prof.
type SpanRecorder = span.Recorder

// NewSpanRecorder starts a wall-clock span recorder writing to w.
func NewSpanRecorder(w io.Writer) *SpanRecorder { return span.New(w) }

// OpenSpanTrace opens (or, with resume, appends to) a span-trace file.
// Deterministic recorders redact the timeline to its logical skeleton,
// byte-identical for a given campaign configuration across worker counts
// and resumes.
func OpenSpanTrace(path string, resume, deterministic bool) (*SpanRecorder, error) {
	return span.Open(path, resume, deterministic)
}

// SpanProfile is the analyzed form of a recorded trace: critical path,
// worker occupancy, scheduler waits, and the slowest units (dce-prof).
type SpanProfile = span.Profile

// AnalyzeSpanTrace parses trace_event JSON (as recorded by a SpanRecorder)
// and reduces it to its profile; topK bounds the slowest-units table.
func AnalyzeSpanTrace(data []byte, topK int) (*SpanProfile, error) {
	t, err := span.Parse(data)
	if err != nil {
		return nil, err
	}
	return span.Analyze(t, topK), nil
}

// ReportTimeline renders a span profile as dce-prof prints it.
func ReportTimeline(p *SpanProfile) string { return report.Timeline(p) }

// ---------------------------------------------------------------------------
// Live monitoring and run history

// CampaignProgress is the live, lock-guarded record of a running campaign
// (CampaignOptions.Progress): its View — seeds done, findings so far,
// failure counts, the ETA and the derived rates — is what the heartbeat
// and the monitor server render.
type CampaignProgress = harness.Progress

// NewCampaignProgress starts tracking a campaign of total seeds on workers
// parallel workers, reading counters from reg.
func NewCampaignProgress(total, workers int, reg *MetricsRegistry) *CampaignProgress {
	return harness.NewProgress(total, workers, reg)
}

// MonitorServer is the embedded campaign monitoring HTTP server
// (dce-campaign -serve): /healthz, /metrics (JSON + Prometheus text),
// /progress, /findings, and the /events, /timeline and /remarks ?since=N
// tails.
type MonitorServer = monitor.Server

// NewMonitor assembles a monitoring server over a campaign's registry,
// progress view, and event log; serve its Handler() or pass it to
// monitor.Start.
func NewMonitor(tool string, reg *MetricsRegistry, p *CampaignProgress, events *EventLog) *MonitorServer {
	return monitor.New(tool, reg, p, events)
}

// RunSnapshot is one campaign's persisted run-history record: configuration,
// elimination rates, failure counts, and fingerprinted findings
// (dce-campaign -history, dce-trend).
type RunSnapshot = history.Snapshot

// NewRunSnapshot condenses a finished campaign into its history snapshot.
// Snapshots of -metrics=deterministic campaigns are byte-identical across
// identical runs.
func NewRunSnapshot(tool string, c *Campaign, reg *MetricsRegistry) *RunSnapshot {
	return history.NewSnapshot(tool, c, reg)
}

// MergeRunSnapshots recombines a complete set of per-shard run snapshots
// into the whole-corpus snapshot the unsharded run would have written
// (dce-trend's comma-grouped arguments).
func MergeRunSnapshots(snaps []*RunSnapshot) (*RunSnapshot, error) {
	return history.MergeShards(snaps)
}

// FingerprintFinding derives a finding's stable cross-run identity: a hash
// of its kind, configuration, primariness, and structural context — never
// the seed or marker name — so corpus renumbering and test-case reduction
// preserve it.
func FingerprintFinding(f Finding) string { return history.Fingerprint(f) }

// TrendDelta classifies two runs' findings as new, fixed, or persistent and
// lists metric regressions.
type TrendDelta = history.Delta

// DiffSnapshots diffs two run snapshots (oldest first).
func DiffSnapshots(old, new *RunSnapshot, o history.DiffOptions) *TrendDelta {
	return history.Diff(old, new, o)
}

// ReportTrend renders a cross-run delta as dce-trend prints it.
func ReportTrend(d *TrendDelta) string { return report.Trend(d) }

// ---------------------------------------------------------------------------
// Reports

// Report renders the full evaluation summary for a campaign.
func Report(c *Campaign) string { return report.Summary(c) }

// ReportPassProfile renders a compilation trace as a table; withTiming
// adds the wall-time column (and makes the output run-dependent).
func ReportPassProfile(p *TraceProfile, withTiming bool) string {
	return report.PassProfileTable(p, withTiming)
}

// ReportProvenance renders a compilation's marker→killer attribution.
func ReportProvenance(p *Provenance) string { return report.ProvenanceTable(p) }

// ReportAttributionTable renders eliminations-per-pass rows.
func ReportAttributionTable(title string, rows []PassElims) string {
	return report.AttributionTable(title, rows)
}
