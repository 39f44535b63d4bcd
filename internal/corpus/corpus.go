// Package corpus runs campaigns: generate a corpus of instrumented random
// programs, compute ground truth, compile every program under every
// (personality, level) configuration, and aggregate the statistics behind
// the paper's evaluation (§4.1, §4.2, Tables 1/2 and the differential
// counts). It also collects the individual findings that feed reduction,
// bisection, and the Table 5 triage model.
//
// Every per-(seed, config) compilation runs under the fault-tolerant
// execution layer of internal/harness: panics become bucketed CrashFinding
// records with reproducers, runaway pass fixpoints hit a step-budget
// deadline, failed configs degrade gracefully (one retry without tracing,
// then the failure is recorded and the seed's remaining configs keep their
// analyses), and a checkpoint makes interrupted campaigns resumable.
//
// Campaigns execute on the internal/sched engine: each seed is a fork-join
// job whose units are the (personality, level) configurations, scheduled
// across Options.Workers pull-based workers (job.go). Every observable
// output — seed outcomes, findings, metrics tables, event-log sequence
// numbers, live-progress appends — is deterministic in corpus order, so a
// parallel run's report is byte-identical to a serial run's, and a sharded
// run (Options.Shard) recombines losslessly via MergeCheckpoints.
package corpus

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dcelens/internal/ast"
	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/harness"
	"dcelens/internal/instrument"
	"dcelens/internal/metrics"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/sched"
	"dcelens/internal/span"
	"dcelens/internal/trace"
)

// Options configures a campaign.
type Options struct {
	// Programs is the corpus size.
	Programs int
	// BaseSeed offsets the per-program seeds (seed i = BaseSeed + i).
	BaseSeed int64
	// GenConfig builds the generator configuration per seed; nil means
	// cgen.DefaultConfig.
	GenConfig func(seed int64) cgen.Config
	// VerifySemantics additionally executes every compiled module and
	// compares against ground truth (miscompile detection). Slower.
	VerifySemantics bool
	// Trace records a per-pass profile and marker provenance for every
	// compilation (internal/trace): each eliminated marker is attributed
	// to the pass instance that killed it, feeding AttributeFinding and
	// EliminationsPerPass. Adds one IR scan per executed pass.
	Trace bool
	// Remarks attaches a remark collector (internal/remark) to every
	// compilation: passes emit missed remarks through the
	// opt.RemarkSink seam and count the transformations they applied, each
	// finding carries its nearest-miss chain, and seed outcomes summarize
	// per-pass counts and miss reasons. Off, the remark seam costs one nil
	// check per pass (see BenchmarkRemarkOverhead).
	Remarks bool
	// Workers bounds parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Shard restricts the campaign to a deterministic corpus slice: seed
	// index i runs iff i % Shard.Count == Shard.Index (the zero value runs
	// everything). Non-member indices produce no outcomes, events, or
	// metrics; shard checkpoints recombine via MergeCheckpoints.
	Shard sched.Shard
	// Personalities and Levels default to both compilers and all levels.
	Personalities []pipeline.Personality
	Levels        []pipeline.Level

	// StepBudget bounds observed pass instances per compilation (the
	// harness watchdog's deadline); <= 0 means harness.DefaultStepBudget.
	StepBudget int
	// Faults is the deterministic fault-injection plan (testing and
	// harness validation); nil injects nothing.
	Faults *harness.Faults
	// Checkpoint persists per-seed outcomes as they complete and skips
	// seeds already present (campaign resume); nil disables checkpointing.
	Checkpoint *harness.Checkpoint

	// Metrics receives the campaign's telemetry: phase timers
	// (generate/instrument/truth here, lower/opt/codegen in internal/core),
	// the per-pass timing and changed-rate collectors, per-seed and
	// per-unit duration histograms, and the failure-kind counters the
	// heartbeat reads. Only freshly-analyzed seeds feed the registry;
	// checkpoint-restored seeds count into "campaign.seeds.restored" and
	// nothing else, so a resumed campaign never re-adds work it did not do
	// (Stats rebuilds the campaign-wide totals from the outcomes instead).
	// Nil disables all collection at zero per-pass cost.
	Metrics *metrics.Registry
	// Events receives the campaign's structured JSONL event stream:
	// campaign/seed/unit begin-end, failures, and checkpoint writes, each a
	// single JSON object with a monotonic sequence number. Nil disables it.
	Events *metrics.EventLog
	// RemarkLog receives one "remarks" event per freshly-analyzed seed that
	// collected remarks (Options.Remarks): the seed's per-pass applied and
	// missed counts and its miss-reason histogram. Events flush through the
	// sequencer in seed order, so the stream is deterministic across worker
	// counts; restored seeds emit nothing (their summaries live in the
	// checkpointed outcomes). Nil disables it.
	RemarkLog *metrics.EventLog
	// Spans receives the campaign's hierarchical span timeline
	// (internal/span): per-seed prepare/finalize stages, (seed, config)
	// units with their phase and pass spans, checkpoint writes, and the
	// scheduler's queue-wait/busy/idle/stall spans. Logical spans flush
	// through the sequencer in slot order, so a deterministic recorder's
	// trace is byte-identical across -j values and resumes (restored seeds
	// emit no spans). Nil disables all span collection.
	Spans *span.Recorder
	// Progress receives the live campaign view the heartbeat and the
	// monitor server read: findings are appended as each seed completes
	// (restored seeds included — the live view reflects the whole
	// campaign). Nil disables it.
	Progress *harness.Progress

	// Stop is the cooperative drain hook (internal/service): polled before
	// each seed starts, a true return leaves the seed unrun. Seeds already
	// in flight finish (and checkpoint) normally, so a stopped campaign is
	// always resumable from a consistent checkpoint; Campaign.Skipped
	// reports how many member seeds were left behind. Nil never stops.
	Stop func() bool
	// Deadline is the campaign's wall-clock budget, enforced inside the
	// harness watchdog: a unit still optimizing past it fails as a timeout,
	// and Stop-style skipping of not-yet-started seeds is the caller's job
	// (internal/service folds the deadline into its Stop hook). Zero
	// disables it.
	Deadline time.Time
	// SeedHook runs at the start of each fresh seed's finalize stage, before
	// its outcome is checkpointed. It is the service layer's chaos seam: a
	// panicking hook kills the whole job (sched converts it into the job
	// error) while the checkpoint keeps every previously completed seed, so
	// crash-retry paths are testable deterministically. Nil does nothing.
	SeedHook func(idx int, seed int64)
}

func (o *Options) fill() {
	if o.Programs <= 0 {
		o.Programs = 20
	}
	if o.GenConfig == nil {
		o.GenConfig = cgen.DefaultConfig
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if len(o.Personalities) == 0 {
		o.Personalities = []pipeline.Personality{pipeline.GCC, pipeline.LLVM}
	}
	if len(o.Levels) == 0 {
		o.Levels = pipeline.Levels
	}
}

// ConfigKey identifies a compiler configuration in result maps.
type ConfigKey struct {
	Personality pipeline.Personality
	Level       pipeline.Level
}

// String renders the stable display form, e.g. "gcc-sim -O3" (the config
// identity recorded in harness failures and matched by fault specs).
func (k ConfigKey) String() string {
	return string(k.Personality) + " " + k.Level.String()
}

// ProgramResult holds everything derived from one corpus program.
type ProgramResult struct {
	Seed   int64
	Ins    *instrument.Program
	Truth  *core.Truth
	Graph  *core.MarkerCFG
	PerCfg map[ConfigKey]*core.Analysis
	// Err is the program-level failure (generation, instrumentation, or
	// ground truth); per-config failures are isolated in Failures so one
	// bad config does not drop the other configs' analyses.
	Err error
	// Failures records the configs that crashed, timed out, or
	// miscompiled, in (personality, level) option order.
	Failures []harness.Failure
}

// FindingKind classifies how a missed optimization was discovered.
type FindingKind int

const (
	// KindCompilerDiff: one compiler eliminates the marker at -O3, the
	// other keeps it (paper §4.2 "Between GCC and LLVM").
	KindCompilerDiff FindingKind = iota
	// KindLevelDiff: eliminated at -O1 or -O2 but missed at -O3 (paper
	// §4.2 "Between optimization levels").
	KindLevelDiff
)

func (k FindingKind) String() string {
	if k == KindCompilerDiff {
		return "compiler-diff"
	}
	return "level-diff"
}

// Finding is one discovered missed optimization opportunity.
type Finding struct {
	Kind        FindingKind
	Seed        int64
	Marker      string
	Personality pipeline.Personality // the compiler that missed
	Level       pipeline.Level       // the level at which it missed
	Primary     bool
	// Context is the marker's structural neighbourhood in the marker CFG
	// (predecessor liveness classes), captured at discovery time. It is the
	// seed- and name-independent part of the finding's identity: the
	// internal/history fingerprint hashes Kind, Personality, Level,
	// Primary, and Context — never Seed or Marker — so renumbering the
	// corpus or reducing the program does not change the fingerprint.
	Context string `json:"context,omitempty"`
	// Chain is the marker's nearest-miss chain under the missing
	// configuration: the ordered (pass, reason) decisions that kept the
	// marker's code alive (internal/remark). Populated only when the
	// campaign ran with Options.Remarks; it rides the outcome through
	// checkpoints but is excluded from the history fingerprint (it names
	// seed-specific values, which would defeat cross-seed dedup).
	Chain []remark.ChainStep `json:"chain,omitempty"`
}

// findingContext renders a marker's structural neighbourhood: how many of
// its marker-CFG predecessors are the live root, alive, dead-but-eliminated
// by the missing compiler, or dead-and-also-missed. The classification uses
// counts (not names) so it survives marker renumbering across seeds.
func findingContext(g *core.MarkerCFG, t *core.Truth, missedSet map[string]bool, marker string) string {
	var root, alive, deadElim, deadMissed int
	for _, p := range g.Preds[marker] {
		switch {
		case p == core.LiveRoot:
			root++
		case t.Alive[p]:
			alive++
		case missedSet[p]:
			deadMissed++
		default:
			deadElim++
		}
	}
	return fmt.Sprintf("preds[root=%d alive=%d dead-elim=%d dead-missed=%d]",
		root, alive, deadElim, deadMissed)
}

// findingLess is the total order campaign findings are reported in.
func findingLess(a, b Finding) bool {
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	if a.Marker != b.Marker {
		return a.Marker < b.Marker
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Personality != b.Personality {
		return a.Personality < b.Personality
	}
	return a.Level < b.Level
}

// CrashBucket is one row of the campaign's fuzzer-style failure dedup:
// failures sharing a kind and signature are "the same bug".
type CrashBucket struct {
	Kind      harness.Kind
	Signature string
	Count     int
	Seeds     []int64 // ascending, deduplicated
}

// Stats aggregates a campaign.
type Stats struct {
	Programs     int
	TotalMarkers int
	DeadMarkers  int
	AliveMarkers int

	// Missed/Primary count dead markers not eliminated, per configuration.
	Missed  map[ConfigKey]int
	Primary map[ConfigKey]int

	// DiffMissed[p] counts dead markers p misses at -O3 that the other
	// personality eliminates at -O3; DiffPrimary restricts to primary.
	DiffMissed  map[pipeline.Personality]int
	DiffPrimary map[pipeline.Personality]int

	// LevelMissed[p] counts dead markers p misses at -O3 but eliminates at
	// -O1 or -O2; LevelPrimary restricts to primary.
	LevelMissed  map[pipeline.Personality]int
	LevelPrimary map[pipeline.Personality]int

	// Remarks sums the seeds' remark summaries across every configuration
	// of every analyzable seed: applied transformations and missed remarks
	// per pass, and the miss-reason histogram. Nil until some seed has a
	// summary (campaigns run with Options.Remarks).
	Remarks *RemarkSummary

	// Failure accounting (internal/harness). Crashes, Timeouts,
	// Miscompiles, and Infeasible are per-kind counts; Failures holds the
	// isolated records (sorted); CrashBuckets dedups them by signature.
	Crashes      int
	Timeouts     int
	Miscompiles  int
	Infeasible   int
	Failures     []harness.Failure
	CrashBuckets []CrashBucket

	// Errors lists every failure message (program-level and per-config),
	// sorted for deterministic output.
	Errors []string
}

// Campaign bundles the corpus results.
type Campaign struct {
	Opts Options
	// Programs holds the full in-memory results of freshly-computed seeds;
	// entries restored from a checkpoint are nil (their contribution lives
	// in Outcomes).
	Programs []*ProgramResult
	// Outcomes holds every seed's serializable summary, in seed order;
	// Stats and Findings are derived from these alone.
	Outcomes []*SeedOutcome
	Stats    *Stats
	Findings []Finding
	// Skipped counts member seeds the Stop hook drained before they ran.
	// They have no outcome; resuming from the campaign's checkpoint runs
	// exactly these, and the resumed report is byte-identical to an
	// uninterrupted run's. Zero for campaigns without a Stop hook.
	Skipped int
}

// Run executes a campaign on the internal/sched engine: one fork-join job
// per member seed, one unit per (personality, level) configuration, at
// most Options.Workers units in flight. Every observable output is
// released in corpus order (job.go), so the report, metrics tables, event
// log, and live progress are byte-identical to a serial run's.
func Run(o Options) (*Campaign, error) {
	o.fill()
	h := &harness.Harness{StepBudget: o.StepBudget, Faults: o.Faults, Metrics: o.Metrics, WallDeadline: o.Deadline}
	if o.Checkpoint != nil {
		if err := o.Checkpoint.Bind(campaignMeta(o)); err != nil {
			return nil, err
		}
	}
	begin := map[string]any{
		"programs": o.Programs, "base_seed": o.BaseSeed, "workers": o.Workers,
	}
	if o.Shard.Sharded() {
		begin["shard"] = o.Shard.String()
	}
	o.Events.Emit("campaign_begin", begin)

	cfgs := o.configKeys()
	var members []int
	for i := 0; i < o.Programs; i++ {
		if o.Shard.Member(i) {
			members = append(members, i)
		}
	}
	results := make([]*ProgramResult, o.Programs)
	outcomes := make([]*SeedOutcome, o.Programs)
	seq := sched.NewSequencer()
	pool := sched.Pool{Workers: o.Workers}
	runStart := time.Now()
	if o.probeActive() {
		probe := &schedProbe{o: &o}
		pool.Probe = probe
		seq.Stall = probe.stall
	}
	err := pool.Run(len(members), func(m int) *sched.Job {
		j := &seedJob{
			o: &o, h: h, idx: members[m], cfgs: cfgs,
			slot: m * (len(cfgs) + 2), seq: seq,
			results: results, outcomes: outcomes,
		}
		j.seed = o.BaseSeed + int64(j.idx)
		return &sched.Job{Prepare: j.prepare, Unit: j.unit, Finalize: j.finalize}
	})
	if err != nil {
		return nil, err
	}
	// The campaign envelope span (wall traces only: CatJob is redacted
	// from deterministic traces, whose contents must not depend on timing).
	o.Spans.Emit(span.Span{
		Name: "campaign", Cat: span.CatJob, TID: 0,
		Start: runStart, Dur: time.Since(runStart),
		Args: []span.Arg{span.Int("programs", o.Programs), span.Int("workers", o.Workers)},
	})

	c := &Campaign{Opts: o, Programs: results, Outcomes: outcomes}
	for _, m := range members {
		if outcomes[m] == nil {
			c.Skipped++
		}
	}
	c.aggregate()
	end := map[string]any{
		"seeds": len(c.Outcomes), "failures": len(c.Stats.Failures),
	}
	if c.Skipped > 0 {
		end["skipped"] = c.Skipped
	}
	o.Events.Emit("campaign_end", end)
	return c, nil
}

// configKeys returns the campaign's configurations in (personality, level)
// option order — the unit order of every seed.
func (o *Options) configKeys() []ConfigKey {
	keys := make([]ConfigKey, 0, len(o.Personalities)*len(o.Levels))
	for _, p := range o.Personalities {
		for _, l := range o.Levels {
			keys = append(keys, ConfigKey{p, l})
		}
	}
	return keys
}

// progressFindings publishes a completed seed's findings to the live
// progress view.
func progressFindings(p *harness.Progress, fs []Finding) {
	if p == nil || len(fs) == 0 {
		return
	}
	anys := make([]any, len(fs))
	for i, f := range fs {
		anys[i] = f
	}
	p.AddFindings(anys...)
}

// countFailures increments the campaign failure-kind counters the
// heartbeat reads. Called only for freshly-analyzed seeds: restored seeds'
// failures reach the final report via Stats aggregation, so re-adding them
// here would double-count them in any view that combines both.
func countFailures(reg *metrics.Registry, failures []harness.Failure) {
	if reg == nil {
		return
	}
	for i := range failures {
		switch failures[i].Kind {
		case harness.KindCrash:
			reg.Counter(metrics.CounterCrashes).Inc()
		case harness.KindTimeout:
			reg.Counter(metrics.CounterTimeouts).Inc()
		case harness.KindMiscompile:
			reg.Counter(metrics.CounterMiscompiles).Inc()
		case harness.KindInfeasible:
			reg.Counter(metrics.CounterInfeasible).Inc()
		}
	}
}

// countRemarks feeds a freshly-analyzed seed's remark summary into the
// live registry ("remarks.applied.<pass>", "remarks.missed.<pass>",
// "remarks.reason.<code>"). Restored seeds stay out, matching the
// registry's fresh-work-only policy.
func countRemarks(reg *metrics.Registry, rs *RemarkSummary) {
	if reg == nil {
		return
	}
	for pass, n := range rs.Applied {
		reg.Counter("remarks.applied." + pass).Add(int64(n))
	}
	for pass, n := range rs.Missed {
		reg.Counter("remarks.missed." + pass).Add(int64(n))
	}
	for reason, n := range rs.Reasons {
		reg.Counter("remarks.reason." + reason).Add(int64(n))
	}
}

// remarkFields renders a seed's remark summary for the remark event log.
func remarkFields(seed int64, rs *RemarkSummary) map[string]any {
	fields := map[string]any{"seed": seed}
	if len(rs.Applied) > 0 {
		fields["applied"] = rs.Applied
	}
	if len(rs.Missed) > 0 {
		fields["missed"] = rs.Missed
	}
	if len(rs.Reasons) > 0 {
		fields["reasons"] = rs.Reasons
	}
	return fields
}

// buildProgram runs the program-construction half of a seed under the
// harness: generation, instrumentation, ground truth, the seed's one
// lowering, and the marker CFG derived from it. It returns the lowering for
// the seed's trie to start from. Failures are infeasible-kind and abandon
// the seed; the failure event (and the phase spans) are buffered into buf
// for sequenced emission.
func buildProgram(o Options, h *harness.Harness, seed int64, buf *slotBuf, tid int) (*ProgramResult, *core.Lowering) {
	r := &ProgramResult{Seed: seed, PerCfg: map[ConfigKey]*core.Analysis{}}
	rec := newRecorder(o.Metrics, buf, tid)
	var lw *core.Lowering
	if fail := h.Protect(seed, "", "", func(opt.Observer) error {
		start := rec.now()
		prog := cgen.Generate(o.GenConfig(seed))
		rec.phase(metrics.PhaseGenerate, start)
		o.Metrics.Counter("stage.cgen.programs").Inc()
		start = rec.now()
		ins, err := instrument.Instrument(prog, instrument.Options{})
		rec.phase(metrics.PhaseInstrument, start)
		if err != nil {
			return fmt.Errorf("%w: %v", harness.ErrInfeasible, err)
		}
		r.Ins = ins
		start = rec.now()
		r.Truth, err = core.GroundTruth(ins)
		rec.phase(metrics.PhaseTruth, start)
		o.Metrics.Counter("stage.interp.runs").Inc()
		if err != nil {
			return fmt.Errorf("%w: %v", harness.ErrInfeasible, err)
		}
		lw, err = core.Lower(ins)
		if err != nil {
			return fmt.Errorf("%w: %v", harness.ErrInfeasible, err)
		}
		r.Graph = core.MarkerCFGOf(lw.Module())
		return nil
	}); fail != nil {
		r.Err = fmt.Errorf("seed %d: %s: %s", seed, fail.Kind, fail.Message)
		r.Failures = append(r.Failures, *fail)
		buf.emit("failure", failureFields(fail))
		return r, nil
	}
	return r, lw
}

// failureFields renders a failure's identity for the event log.
func failureFields(f *harness.Failure) map[string]any {
	fields := map[string]any{
		"seed": f.Seed, "kind": f.Kind.String(), "signature": f.Signature,
	}
	if f.Config != "" {
		fields["config"] = f.Config
	}
	return fields
}

// runConfig compiles and analyzes one configuration under the harness:
// it continues paused, the unit's compile as the seed's trie paused it, or
// compiles alone when paused is nil. It touches no shared state: the
// analysis is returned for the seed's finalize stage to merge, and events
// and spans are buffered into buf for sequenced emission, which is what
// lets a seed's units run concurrently. A failure carries the instrumented
// source as its reproducer, printed only once the failure exists.
func runConfig(o Options, h *harness.Harness, r *ProgramResult, key ConfigKey, paused *core.Paused, traced, remarks bool, buf *slotBuf, tid int) (*core.Analysis, *harness.Failure) {
	buf.emit("unit_begin", map[string]any{"seed": r.Seed, "config": key.String()})
	ustart := buf.now()
	var out *core.Analysis
	fail := h.Protect(r.Seed, key.String(), "", func(guard opt.Observer) error {
		hooks := core.Hooks{Observer: guard}
		if rec := newRecorder(o.Metrics, buf, tid); rec != nil {
			hooks.Recorder = rec
		}
		if traced {
			hooks.Trace = trace.NewRecorder(r.Ins.MarkerNames(), instrument.IsMarker)
		}
		if remarks {
			hooks.Remarks = remark.NewCollector(instrument.IsMarker)
		}
		var an *core.Analysis
		var err error
		if paused != nil {
			an, err = paused.Analyze(r.Truth, r.Graph, hooks)
		} else {
			an, err = core.Analyze(r.Ins, pipeline.New(key.Personality, key.Level), r.Truth, r.Graph, hooks)
		}
		if err != nil {
			return err
		}
		if o.VerifySemantics {
			if verr := an.Compilation.VerifyAgainstTruth(r.Truth); verr != nil {
				return fmt.Errorf("%w: %v", harness.ErrMiscompile, verr)
			}
		}
		out = an
		return nil
	})
	o.Metrics.Counter(metrics.CounterUnits).Inc()
	buf.emit("unit_end", map[string]any{
		"seed": r.Seed, "config": key.String(), "ok": fail == nil,
	})
	if buf.timed() {
		buf.span(key.String(), span.CatUnit, tid, ustart,
			span.Int64("seed", r.Seed), span.Bool("ok", fail == nil))
	}
	if fail != nil {
		fail.Source = SourceOf(r)
		return nil, fail
	}
	return out, nil
}

// aggregate derives Stats and Findings from the seed outcomes alone, so a
// checkpoint-resumed campaign aggregates identically to a fresh one.
func (c *Campaign) aggregate() {
	s := &Stats{
		Missed:       map[ConfigKey]int{},
		Primary:      map[ConfigKey]int{},
		DiffMissed:   map[pipeline.Personality]int{},
		DiffPrimary:  map[pipeline.Personality]int{},
		LevelMissed:  map[pipeline.Personality]int{},
		LevelPrimary: map[pipeline.Personality]int{},
	}
	for _, out := range c.Outcomes {
		if out == nil {
			continue
		}
		if out.Err != "" {
			s.Errors = append(s.Errors, out.Err)
		}
		for _, f := range out.Failures {
			s.Failures = append(s.Failures, f)
			s.Errors = append(s.Errors, f.String())
			switch f.Kind {
			case harness.KindCrash:
				s.Crashes++
			case harness.KindTimeout:
				s.Timeouts++
			case harness.KindMiscompile:
				s.Miscompiles++
			case harness.KindInfeasible:
				s.Infeasible++
			}
		}
		if !out.Ok {
			continue
		}
		s.Programs++
		s.TotalMarkers += out.Markers
		s.DeadMarkers += out.Dead
		s.AliveMarkers += out.Alive
		if rs := out.Remarks; rs != nil {
			if s.Remarks == nil {
				s.Remarks = &RemarkSummary{}
			}
			s.Remarks.merge(rs)
		}
		for _, cf := range out.Configs {
			key := ConfigKey{cf.Personality, cf.Level}
			s.Missed[key] += cf.Missed
			s.Primary[key] += cf.Primary
		}
		for _, f := range out.Findings {
			c.Findings = append(c.Findings, f)
			switch f.Kind {
			case KindCompilerDiff:
				s.DiffMissed[f.Personality]++
				if f.Primary {
					s.DiffPrimary[f.Personality]++
				}
			case KindLevelDiff:
				s.LevelMissed[f.Personality]++
				if f.Primary {
					s.LevelPrimary[f.Personality]++
				}
			}
		}
	}
	sort.Strings(s.Errors)
	sort.Slice(s.Failures, func(i, j int) bool {
		a, b := s.Failures[i], s.Failures[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Signature < b.Signature
	})
	s.CrashBuckets = bucketFailures(s.Failures)
	sort.Slice(c.Findings, func(i, j int) bool {
		return findingLess(c.Findings[i], c.Findings[j])
	})
	c.Stats = s
}

// bucketFailures dedups failures by (kind, signature), the fuzzer-triage
// view of a campaign's faults. Input and output are sorted, so the bucket
// table is deterministic.
func bucketFailures(failures []harness.Failure) []CrashBucket {
	type key struct {
		kind harness.Kind
		sig  string
	}
	idx := map[key]int{}
	var buckets []CrashBucket
	for _, f := range failures {
		k := key{f.Kind, f.Signature}
		i, ok := idx[k]
		if !ok {
			i = len(buckets)
			idx[k] = i
			buckets = append(buckets, CrashBucket{Kind: f.Kind, Signature: f.Signature})
		}
		buckets[i].Count++
		seeds := buckets[i].Seeds
		if len(seeds) == 0 || seeds[len(seeds)-1] != f.Seed {
			buckets[i].Seeds = append(seeds, f.Seed)
		}
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].Kind != buckets[j].Kind {
			return buckets[i].Kind < buckets[j].Kind
		}
		return buckets[i].Signature < buckets[j].Signature
	})
	return buckets
}

// diffFindings compares the two personalities at -O3 (paper §4.2).
func diffFindings(o Options, r *ProgramResult) []Finding {
	if len(o.Personalities) < 2 {
		return nil
	}
	a := r.PerCfg[ConfigKey{pipeline.GCC, pipeline.O3}]
	b := r.PerCfg[ConfigKey{pipeline.LLVM, pipeline.O3}]
	if a == nil || b == nil {
		return nil
	}
	var out []Finding
	record := func(missedBy pipeline.Personality, target, ref *core.Analysis) {
		missed := core.DiffMissed(target.Compilation, ref.Compilation, r.Truth)
		primary := r.Graph.Primary(r.Truth, missed)
		prim := map[string]bool{}
		for _, m := range primary {
			prim[m] = true
		}
		missedSet := map[string]bool{}
		for _, m := range missed {
			missedSet[m] = true
		}
		for _, m := range missed {
			out = append(out, Finding{
				Kind: KindCompilerDiff, Seed: r.Seed, Marker: m,
				Personality: missedBy, Level: pipeline.O3, Primary: prim[m],
				Context: findingContext(r.Graph, r.Truth, missedSet, m),
				// The nearest-miss chain comes from the compilation that
				// failed to eliminate the marker — the decisions worth
				// explaining are the misser's, not the reference's.
				Chain: target.Remarks.Chain(m),
			})
		}
	}
	record(pipeline.GCC, a, b)
	record(pipeline.LLVM, b, a)
	return out
}

// levelFindings looks for dead markers eliminated at -O1/-O2 but missed at
// -O3 (paper §4.2 "Between optimization levels").
func levelFindings(o Options, r *ProgramResult) []Finding {
	var out []Finding
	for _, p := range o.Personalities {
		o3 := r.PerCfg[ConfigKey{p, pipeline.O3}]
		o1 := r.PerCfg[ConfigKey{p, pipeline.O1}]
		o2 := r.PerCfg[ConfigKey{p, pipeline.O2}]
		if o3 == nil || (o1 == nil && o2 == nil) {
			continue
		}
		var missed []string
		for _, m := range o3.Missed {
			elimO1 := o1 != nil && !o1.Compilation.Alive[m]
			elimO2 := o2 != nil && !o2.Compilation.Alive[m]
			if elimO1 || elimO2 {
				missed = append(missed, m)
			}
		}
		primary := r.Graph.Primary(r.Truth, missed)
		prim := map[string]bool{}
		for _, m := range primary {
			prim[m] = true
		}
		missedSet := map[string]bool{}
		for _, m := range missed {
			missedSet[m] = true
		}
		for _, m := range missed {
			out = append(out, Finding{
				Kind: KindLevelDiff, Seed: r.Seed, Marker: m,
				Personality: p, Level: pipeline.O3, Primary: prim[m],
				Context: findingContext(r.Graph, r.Truth, missedSet, m),
				Chain:   o3.Remarks.Chain(m),
			})
		}
	}
	return out
}

// FindingsOf filters findings.
func (c *Campaign) FindingsOf(kind FindingKind, p pipeline.Personality, primaryOnly bool) []Finding {
	var out []Finding
	for _, f := range c.Findings {
		if f.Kind == kind && f.Personality == p && (!primaryOnly || f.Primary) {
			out = append(out, f)
		}
	}
	return out
}

// SourceOf returns the instrumented program's source text.
func SourceOf(r *ProgramResult) string { return ast.Print(r.Ins.Prog) }

// Result returns the per-program result for a seed.
func (c *Campaign) Result(seed int64) *ProgramResult {
	for _, r := range c.Programs {
		if r != nil && r.Seed == seed {
			return r
		}
	}
	return nil
}
