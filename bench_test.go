// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each benchmark prints the table it reproduces (once) and times a
// representative unit of the underlying work, so
//
//	go test -bench=. -benchmem
//
// both regenerates the evaluation and measures the engine. Absolute numbers
// differ from the paper — the substrate is a simulator, not the authors'
// Threadripper running real GCC/LLVM — but the shapes (monotonicity across
// levels, which compiler wins the differential, where the regressions land)
// are the reproduction targets; EXPERIMENTS.md records paper-vs-measured.
//
// The corpus size is controlled by DCELENS_BENCH_PROGRAMS (default 60).
package dcelens

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dcelens/internal/asm"
	"dcelens/internal/bisect"
	"dcelens/internal/core"
	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/journal"
	"dcelens/internal/lower"
	"dcelens/internal/metrics"
	"dcelens/internal/monitor"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/reduce"
	"dcelens/internal/report"
	"dcelens/internal/span"
)

// benchPrograms returns the campaign size for benches.
func benchPrograms() int {
	if v, err := strconv.Atoi(os.Getenv("DCELENS_BENCH_PROGRAMS")); err == nil && v > 0 {
		return v
	}
	return 60
}

var (
	campOnce sync.Once
	camp     *corpus.Campaign
	campErr  error
)

// campaign lazily runs the shared evaluation campaign.
func campaign(b *testing.B) *corpus.Campaign {
	b.Helper()
	campOnce.Do(func() {
		camp, campErr = corpus.Run(corpus.Options{
			Programs: benchPrograms(),
			BaseSeed: 1,
		})
	})
	if campErr != nil {
		b.Fatal(campErr)
	}
	if len(camp.Stats.Errors) > 0 {
		b.Fatalf("campaign errors: %v", camp.Stats.Errors)
	}
	return camp
}

// printOnce prints a table exactly once across benchmark iterations.
var printedTables sync.Map

func printTable(name, text string) {
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// analyzeOneProgram is the timed unit shared by the table benches: the full
// single-program pipeline (generate, instrument, ground truth, compile at
// -O3 with both personalities).
func analyzeOneProgram(b *testing.B, seed int64) {
	b.Helper()
	prog := Generate(seed)
	ins, err := Instrument(prog)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := GroundTruth(ins)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []*Compiler{GCC(O3), LLVM(O3)} {
		comp, err := Compile(ins, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = comp.Missed(truth)
	}
}

// BenchmarkDeadBlockPrevalence regenerates §4.1's prevalence numbers
// (paper: 3,109,167 blocks, 89.59% dead / 10.41% alive).
func BenchmarkDeadBlockPrevalence(b *testing.B) {
	c := campaign(b)
	printTable("prevalence", "§4.1 dead-block prevalence (paper: 89.59% dead)\n"+report.Prevalence(c.Stats))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := Generate(int64(i))
		ins, err := Instrument(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := GroundTruth(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1MissedPerLevel regenerates Table 1 (% dead blocks missed
// per level; paper: monotone decrease, O0≈85%, O3≈5%).
func BenchmarkTable1MissedPerLevel(b *testing.B) {
	c := campaign(b)
	printTable("table1", report.Table1(c.Stats))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeOneProgram(b, int64(1000+i))
	}
}

// BenchmarkTable2PrimaryMissedPerLevel regenerates Table 2 (% dead blocks
// primary missed; paper: O3 1.53% GCC / 1.37% LLVM).
func BenchmarkTable2PrimaryMissedPerLevel(b *testing.B) {
	c := campaign(b)
	printTable("table2", report.Table2(c.Stats))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Programs[i%len(c.Programs)]
		an := r.PerCfg[corpus.ConfigKey{Personality: pipeline.LLVM, Level: pipeline.O3}]
		_ = r.Graph.Primary(r.Truth, an.Missed)
	}
}

// BenchmarkCompilerDifferential regenerates the §4.2 compiler-vs-compiler
// counts (paper: LLVM eliminates 39,723 markers GCC misses vs 3,781 the
// other way; 4,749 vs 396 primary — LLVM wins by roughly an order of
// magnitude).
func BenchmarkCompilerDifferential(b *testing.B) {
	c := campaign(b)
	printTable("compilerdiff", report.CompilerDiff(c.Stats))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Programs[i%len(c.Programs)]
		g := r.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}]
		l := r.PerCfg[corpus.ConfigKey{Personality: pipeline.LLVM, Level: pipeline.O3}]
		_ = DiffMissed(g.Compilation, l.Compilation, r.Truth)
		_ = DiffMissed(l.Compilation, g.Compilation, r.Truth)
	}
}

// BenchmarkLevelDifferential regenerates the §4.2 level-vs-level counts
// (paper: GCC misses 308 markers at -O3 that -O1/-O2 eliminate, 24 primary;
// LLVM 456, 54 primary).
func BenchmarkLevelDifferential(b *testing.B) {
	c := campaign(b)
	printTable("leveldiff", report.LevelDiff(c.Stats))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Programs[i%len(c.Programs)]
		o3 := r.PerCfg[corpus.ConfigKey{Personality: pipeline.LLVM, Level: pipeline.O3}]
		o1 := r.PerCfg[corpus.ConfigKey{Personality: pipeline.LLVM, Level: pipeline.O1}]
		n := 0
		for _, m := range o3.Missed {
			if !o1.Compilation.Alive[m] {
				n++
			}
		}
	}
}

// componentCache memoizes the bisection sweeps across b.N calibration
// rounds (they are the benchmark's setup, not its timed unit).
var componentCache sync.Map

type componentResult struct {
	outs      []*bisect.Outcome
	attempted int
}

// benchComponents bisects the campaign's level regressions for one
// personality and prints the Table 3/4 analogue.
func benchComponents(b *testing.B, p pipeline.Personality, table, paperNote string) {
	c := campaign(b)
	cached, ok := componentCache.Load(p)
	if !ok {
		outs, attempted, err := c.BisectRegressions(p, false, 40)
		if err != nil {
			b.Fatal(err)
		}
		cached = componentResult{outs, attempted}
		componentCache.Store(p, cached)
	}
	outs, attempted := cached.(componentResult).outs, cached.(componentResult).attempted
	rows := bisect.Categorize(outs)
	printTable(table, fmt.Sprintf("%s\n(bisected %d candidates, %d regressions, %d unique commits)\n%s",
		paperNote, attempted, len(outs), bisect.UniqueCommits(outs),
		report.ComponentTable(table, rows)))
	if len(c.FindingsOf(corpus.KindLevelDiff, p, false)) == 0 {
		b.Skip("no level regressions in this corpus slice")
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		// Timed unit: one bisection.
		fs := c.FindingsOf(corpus.KindLevelDiff, p, false)
		f := fs[n%len(fs)]
		n++
		r := c.Result(f.Seed)
		_, _ = bisect.Regression(r.Ins, p, pipeline.O3, f.Marker)
	}
}

// BenchmarkTable3LLVMRegressionComponents regenerates Table 3 (paper: 21
// unique LLVM commits across 11 components / 23 files).
func BenchmarkTable3LLVMRegressionComponents(b *testing.B) {
	benchComponents(b, pipeline.LLVM, "Table 3 analogue: LLVM components",
		"Table 3 (paper: 21 commits, 11 components, 23 files)")
}

// BenchmarkTable4GCCRegressionComponents regenerates Table 4 (paper: 23
// unique GCC commits across 16 components / 34 files).
func BenchmarkTable4GCCRegressionComponents(b *testing.B) {
	benchComponents(b, pipeline.GCC, "Table 4 analogue: GCC components",
		"Table 4 (paper: 23 commits, 16 components, 34 files)")
}

// table5Setup caches the expensive reduction work across the benchmark
// framework's b.N calibration rounds.
var (
	table5Once    sync.Once
	table5Err     error
	table5Triage  map[pipeline.Personality]*corpus.Triage
	table5Reduced []*corpus.ReducedCase
)

func table5Prepare(c *corpus.Campaign) {
	table5Triage = map[pipeline.Personality]*corpus.Triage{}
	reduced := map[pipeline.Personality][]*corpus.ReducedCase{}
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		budget := 6
		for _, kind := range []corpus.FindingKind{corpus.KindCompilerDiff, corpus.KindLevelDiff} {
			for _, f := range c.FindingsOf(kind, p, true) {
				if budget == 0 {
					break
				}
				budget--
				rc, err := c.ReduceFinding(f, reduce.Options{MaxChecks: 350, MaxRounds: 3})
				if err != nil {
					table5Err = err
					return
				}
				reduced[p] = append(reduced[p], rc)
			}
		}
		tr, err := corpus.TriageCases(p, reduced[p])
		if err != nil {
			table5Err = err
			return
		}
		table5Triage[p] = tr
	}
	table5Reduced = append(append([]*corpus.ReducedCase{}, reduced[pipeline.GCC]...), reduced[pipeline.LLVM]...)
}

// BenchmarkTable5ReportTriage regenerates Table 5's triage counts (paper:
// GCC 53 reported / 43 confirmed / 5 duplicate / 12 fixed; LLVM 31 / 19 /
// 0 / 11) by reducing, deduplicating, and re-testing findings against the
// future-fix configurations.
func BenchmarkTable5ReportTriage(b *testing.B) {
	c := campaign(b)
	table5Once.Do(func() { table5Prepare(c) })
	if table5Err != nil {
		b.Fatal(table5Err)
	}
	printTable("table5", report.Table5(table5Triage[pipeline.GCC], table5Triage[pipeline.LLVM]))

	all := table5Reduced
	if len(all) == 0 {
		b.Skip("no findings to triage in this corpus slice")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Timed unit: re-triage the reduced cases (parse + compile each).
		rc := all[i%len(all)]
		p := rc.Finding.Personality
		if _, err := corpus.TriageCases(p, []*corpus.ReducedCase{rc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead measures what pipeline observability costs: the
// "off" case runs the plain single-program unit (and must match the seed's
// numbers — tracing disabled is a nil-observer pointer check per pass), the
// "on" case runs the same unit with the recorder attached, whose per-pass
// IR scans bound the profiling overhead.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzeOneProgram(b, int64(3000+i))
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed := int64(3000 + i)
			ins, err := Instrument(Generate(seed))
			if err != nil {
				b.Fatal(err)
			}
			truth, err := GroundTruth(ins)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range []*Compiler{GCC(O3), LLVM(O3)} {
				comp, _, err := CompileTraced(ins, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = comp.Missed(truth)
			}
		}
	})
}

// BenchmarkCampaignParallel measures campaign throughput across worker
// counts: the same fixed corpus on 1, 2, and 4 workers plus GOMAXPROCS.
// A seed's prepare stage builds the program, lowers it once and runs the
// pass instances its configurations share (core.Trie); after that, each
// (seed, config) unit continues on its own module, independent of the
// others. So on a multi-core machine the campaign should scale close to
// linearly until the core count bounds it (scripts/check.sh gates ≥1.5× at
// -j 4 on machines with ≥4 CPUs; on fewer cores the workers time-slice one
// CPU and no speedup is possible). The byte-identity of the outputs across
// these worker counts is asserted separately
// (TestParallelCampaignByteIdentity).
func BenchmarkCampaignParallel(b *testing.B) {
	const programs = 12
	variants := []struct {
		name    string
		workers int
	}{
		{"j1", 1}, {"j2", 2}, {"j4", 4}, {"jmax", runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := corpus.Run(corpus.Options{
					Programs: programs, BaseSeed: 9000, Workers: v.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if c.Stats.Programs != programs {
					b.Fatalf("short campaign: %d of %d programs", c.Stats.Programs, programs)
				}
			}
		})
	}
}

// BenchmarkHarnessOverhead measures what fault isolation costs: the "off"
// case runs the plain single-program unit, the "on" case runs the identical
// unit with every compilation wrapped in harness.Protect (defer/recover plus
// the step-budget watchdog counting pass instances). The wrapper should be
// within a few percent of the unprotected run — campaigns pay essentially
// nothing for crash isolation on the fault-free path.
func BenchmarkHarnessOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzeOneProgram(b, int64(4000+i))
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		h := &harness.Harness{}
		for i := 0; i < b.N; i++ {
			seed := int64(4000 + i)
			ins, err := Instrument(Generate(seed))
			if err != nil {
				b.Fatal(err)
			}
			truth, err := GroundTruth(ins)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range []*Compiler{GCC(O3), LLVM(O3)} {
				cfg := cfg
				fail := h.Protect(seed, cfg.Name(), "", func(obs opt.Observer) error {
					comp, err := core.Compile(ins, cfg, core.Hooks{Observer: obs})
					if err != nil {
						return err
					}
					_ = comp.Missed(truth)
					return nil
				})
				if fail != nil {
					b.Fatalf("protected unit failed: %+v", fail)
				}
			}
		}
	})
}

// BenchmarkMetricsOverhead measures what campaign telemetry costs: the
// "off" case runs the plain single-program unit, the "on" case runs the
// identical unit with a live registry threaded through every layer — phase
// timers around generate/truth, and per compile the recorder a metered
// campaign unit attaches (lower/opt/codegen phases, per-pass histograms,
// stage counters). Collection is atomic adds behind cached
// pointers, so "on" should stay within a few percent of "off" (the ~5%
// budget scripts/check.sh smoke-tests).
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzeOneProgram(b, int64(5000+i))
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		reg := metrics.New()
		for i := 0; i < b.N; i++ {
			seed := int64(5000 + i)
			stop := reg.Time(metrics.PhaseGenerate)
			prog := Generate(seed)
			stop()
			ins, err := Instrument(prog)
			if err != nil {
				b.Fatal(err)
			}
			stop = reg.Time(metrics.PhaseTruth)
			truth, err := GroundTruth(ins)
			stop()
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range []*Compiler{GCC(O3), LLVM(O3)} {
				comp, err := core.Compile(ins, cfg, core.Hooks{Recorder: corpus.NewRecorder(reg)})
				if err != nil {
					b.Fatal(err)
				}
				_ = comp.Missed(truth)
			}
		}
	})
}

// BenchmarkMonitorOverhead measures what live monitoring costs a campaign:
// the "off" case runs the metered single-program unit (registry attached,
// no server — the baseline a monitored campaign starts from), the "on" case
// runs the identical unit with the monitoring server bound to a real socket,
// the progress view and event tail wired, and a client polling /progress
// each iteration — a far harsher poll cadence than a real dashboard. The
// endpoints only read atomics behind the progress mutex, so "on" must stay
// within the ~5% budget scripts/check.sh smoke-tests.
func BenchmarkMonitorOverhead(b *testing.B) {
	unit := func(b *testing.B, seed int64, reg *metrics.Registry) {
		b.Helper()
		stop := reg.Time(metrics.PhaseGenerate)
		prog := Generate(seed)
		stop()
		ins, err := Instrument(prog)
		if err != nil {
			b.Fatal(err)
		}
		stop = reg.Time(metrics.PhaseTruth)
		truth, err := GroundTruth(ins)
		stop()
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []*Compiler{GCC(O3), LLVM(O3)} {
			comp, err := core.Compile(ins, cfg, core.Hooks{Recorder: corpus.NewRecorder(reg)})
			if err != nil {
				b.Fatal(err)
			}
			_ = comp.Missed(truth)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		reg := metrics.New()
		for i := 0; i < b.N; i++ {
			unit(b, int64(6000+i), reg)
			reg.Counter(metrics.CounterSeedsAnalyzed).Inc()
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		reg := metrics.New()
		prog := harness.NewProgress(b.N, 1, reg)
		events := metrics.NewEventLog(io.Discard)
		events.Journal().KeepTail(journal.TailSize)
		run, err := monitor.Start("127.0.0.1:0", monitor.New("bench", reg, prog, events))
		if err != nil {
			b.Fatal(err)
		}
		defer run.Close()
		url := "http://" + run.Addr() + "/progress"
		client := &http.Client{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			unit(b, int64(6000+i), reg)
			reg.Counter(metrics.CounterSeedsAnalyzed).Inc()
			events.Emit("seed_end", map[string]any{"seed": 6000 + i})
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkSpanOverhead measures what the span timeline costs a campaign:
// the "off" case runs a small serial campaign bare, the "on" case runs the
// identical campaign with a wall-clock recorder attached — every seed,
// unit, phase, pass, and scheduler span rendered and written (to a sink, so
// the gate measures recording, not disk). Rendering is one lock and one
// strings.Builder per span, so "on" must stay within the ~3% budget
// scripts/check.sh smoke-tests.
func BenchmarkSpanOverhead(b *testing.B) {
	const programs = 8
	run := func(b *testing.B, rec *span.Recorder) {
		b.Helper()
		c, err := corpus.Run(corpus.Options{
			Programs: programs, BaseSeed: 8200, Workers: 1, Spans: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		if c.Stats.Programs != programs {
			b.Fatalf("short campaign: %d of %d programs", c.Stats.Programs, programs)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, span.New(io.Discard))
		}
	})
}

// BenchmarkRemarkOverhead measures what remark collection costs a
// campaign: the "off" case runs a small serial campaign bare, the "on"
// case runs the identical campaign with Options.Remarks — every pass
// emitting missed remarks and counting what it applied, the
// collector deduplicating the remarks, and each seed's profile reduced to
// chains and summaries. With remarks off the emission seam is one pointer
// comparison per decision, so "off" must stay indistinguishable from the
// pre-remarks pipeline. Both arms report allocations: scripts/check.sh
// gates their on/off ratio, which unlike wall time is nearly
// deterministic.
func BenchmarkRemarkOverhead(b *testing.B) {
	const programs = 8
	run := func(b *testing.B, remarks bool) {
		b.Helper()
		c, err := corpus.Run(corpus.Options{
			Programs: programs, BaseSeed: 8200, Workers: 1, Remarks: remarks,
		})
		if err != nil {
			b.Fatal(err)
		}
		if c.Stats.Programs != programs {
			b.Fatalf("short campaign: %d of %d programs", c.Stats.Programs, programs)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, false)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
}

// BenchmarkPaperListings times the qualitative reproduction of the paper's
// reduced test cases (Listings 1-9; see examples/paperlistings for the
// assertions, and TestPaperListings in facade_test.go).
func BenchmarkPaperListings(b *testing.B) {
	src := `
void DCEMarker0(void);
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[1];
  if (c == d) {
    DCEMarker0();
  }
  return 0;
}`
	prog, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ins := &Instrumented{Prog: prog}
	ins.Markers = append(ins.Markers, instrument.Marker{ID: 0, Name: "DCEMarker0"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gcc, err := Compile(ins, GCC(O3))
		if err != nil {
			b.Fatal(err)
		}
		llvm, err := Compile(ins, LLVM(O3))
		if err != nil {
			b.Fatal(err)
		}
		if gcc.Alive["DCEMarker0"] || !llvm.Alive["DCEMarker0"] {
			b.Fatal("Listing 3 behaviour changed")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md "Key design decisions")

// ablationMissedCount compiles a fixed slice of programs under a custom
// schedule/options and counts missed dead markers.
func ablationMissedCount(b *testing.B, o opt.Options, passes []opt.Pass, n int) int {
	return ablationMissedCountAny(b, o, passes, n)
}

func ablationMissedCountAny(b testing.TB, o opt.Options, passes []opt.Pass, n int) int {
	b.Helper()
	missed := 0
	for seed := int64(0); seed < int64(n); seed++ {
		prog := Generate(seed)
		ins, err := Instrument(prog)
		if err != nil {
			b.Fatal(err)
		}
		truth, err := GroundTruth(ins)
		if err != nil {
			b.Fatal(err)
		}
		m, err := lower.Lower(ins.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.Pipeline(m, o, passes, 2); err != nil {
			b.Fatal(err)
		}
		alive := map[string]bool{}
		for _, f := range m.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == ir.OpCall && in.Callee != nil && instrument.IsMarker(in.Callee.Name) {
						alive[in.Callee.Name] = true
					}
				}
			}
		}
		for _, d := range truth.Dead {
			if alive[d] {
				missed++
			}
		}
	}
	return missed
}

// ablationSchedule mirrors the full -O3 pipeline: mem2reg's leverage is
// mostly indirect (loop-counter phis feed VRP ranges and full unrolling,
// and localization is useless without subsequent promotion), so the
// ablation only tells the truth when the downstream passes are present.
var ablationSchedule = []opt.Pass{
	opt.Mem2Reg, opt.IPSCCP, opt.SCCP, opt.InstCombine, opt.SimplifyCFG,
	opt.Inline, opt.LocalizeGlobals, opt.Mem2Reg, opt.SCCP, opt.InstCombine,
	opt.SimplifyCFG, opt.JumpThread, opt.VRP, opt.LICM, opt.GVN, opt.DSE,
	opt.DCE, opt.SimplifyCFG, opt.Unroll, opt.SCCP, opt.InstCombine,
	opt.SimplifyCFG, opt.GVN, opt.DCE, opt.SimplifyCFG, opt.GlobalDCE,
}

func ablationOptions() opt.Options {
	return opt.Options{
		GlobalProp:              opt.GlobalPropSameConst,
		Alias:                   opt.AliasBaseObject,
		FoldPtrCmpNonzeroOffset: true,
		ConstArrayLoadFold:      true,
		LoadForwarding:          true,
		RedundantStoreElim:      true,
		InlineBudget:            80,
		UnrollMaxTrip:           8,
		GlobalLocalize:          true,
		ShiftNonzeroRelation:    true,
	}
}

// BenchmarkAblationNoMem2Reg quantifies the "DCE depends on the pipeline"
// thesis in miniature: without scalar promotion, SCCP/GVN see only opaque
// memory traffic and the missed-marker count balloons.
func BenchmarkAblationNoMem2Reg(b *testing.B) {
	const progs = 10
	full := ablationMissedCount(b, ablationOptions(), ablationSchedule, progs)
	var noM2R []opt.Pass
	for _, p := range ablationSchedule {
		if p.Name != "mem2reg" {
			noM2R = append(noM2R, p)
		}
	}
	ablated := ablationMissedCount(b, ablationOptions(), noM2R, progs)
	printTable("ablation-mem2reg", fmt.Sprintf(
		"Ablation: missed dead markers over %d programs\n  full pipeline: %d\n  without mem2reg: %d",
		progs, full, ablated))
	if ablated < full {
		b.Fatalf("ablation inverted: %d < %d", ablated, full)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablationMissedCount(b, ablationOptions(), noM2R, 1)
	}
}

// BenchmarkAblationNoEscapeAnalysis: when every global is assumed to escape,
// opaque marker calls clobber everything and constant propagation through
// globals collapses — the property the paper's static-global test cases
// rely on.
func BenchmarkAblationNoEscapeAnalysis(b *testing.B) {
	const progs = 10
	full := ablationMissedCount(b, ablationOptions(), ablationSchedule, progs)
	o := ablationOptions()
	o.PessimisticEscape = true
	ablated := ablationMissedCount(b, o, ablationSchedule, progs)
	printTable("ablation-escape", fmt.Sprintf(
		"Ablation: missed dead markers over %d programs\n  with escape analysis: %d\n  everything escapes: %d",
		progs, full, ablated))
	if ablated < full {
		b.Fatalf("ablation inverted: %d < %d", ablated, full)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablationMissedCount(b, o, ablationSchedule, 1)
	}
}

// BenchmarkAblationPrimaryFiltering quantifies §3.2's filter: how many
// missed markers a triager would look at with and without primary
// filtering (the paper reports 42,478 primary out of ~174k missed for GCC).
func BenchmarkAblationPrimaryFiltering(b *testing.B) {
	c := campaign(b)
	total, primary := 0, 0
	for _, r := range c.Programs {
		an := r.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}]
		total += len(an.Missed)
		primary += len(an.PrimaryMissed)
	}
	printTable("ablation-primary", fmt.Sprintf(
		"Ablation: triage volume at gcc-sim -O3\n  all missed markers: %d\n  after primary filtering: %d",
		total, primary))
	if primary > total {
		b.Fatal("primary filter grew the set")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Programs[i%len(c.Programs)]
		an := r.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}]
		_ = r.Graph.Primary(r.Truth, an.Missed)
	}
}

// BenchmarkRelatedWorkStaticMetrics implements the related-work comparison
// the paper contrasts itself against (Barany, CC 2018): differential
// testing on static features of the generated assembly. It reports the
// aggregate instruction/call/load/store counts of both personalities over
// the shared campaign — coarse signals the paper argues cannot pinpoint
// missed DCE the way markers can.
func BenchmarkRelatedWorkStaticMetrics(b *testing.B) {
	c := campaign(b)
	var g, l asm.Metrics
	for _, r := range c.Programs {
		ga := r.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}]
		la := r.PerCfg[corpus.ConfigKey{Personality: pipeline.LLVM, Level: pipeline.O3}]
		gm := asm.Measure(ga.Compilation.Asm)
		lm := asm.Measure(la.Compilation.Asm)
		g.Instructions += gm.Instructions
		g.Calls += gm.Calls
		g.Loads += gm.Loads
		g.Stores += gm.Stores
		g.Branches += gm.Branches
		l.Instructions += lm.Instructions
		l.Calls += lm.Calls
		l.Loads += lm.Loads
		l.Stores += lm.Stores
		l.Branches += lm.Branches
	}
	printTable("barany", fmt.Sprintf(
		"Related work (Barany CC'18) static assembly features at -O3:\n"+
			"%-10s %12s %12s\n%-10s %12d %12d\n%-10s %12d %12d\n%-10s %12d %12d\n%-10s %12d %12d\n%-10s %12d %12d",
		"", "gcc-sim", "llvm-sim",
		"instrs", g.Instructions, l.Instructions,
		"calls", g.Calls, l.Calls,
		"loads", g.Loads, l.Loads,
		"stores", g.Stores, l.Stores,
		"branches", g.Branches, l.Branches))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Programs[i%len(c.Programs)]
		an := r.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}]
		_ = asm.Measure(an.Compilation.Asm)
	}
}

// BenchmarkUnitCompile measures one (seed,config) compilation unit — the
// atom of campaign throughput: lower + optimize + codegen + marker scan for
// a single instrumented program under a single configuration. Allocations
// are reported because the middle-end's allocation churn is the other half
// of the unit cost (scripts/check.sh gates allocs/op against a recorded
// baseline).
func BenchmarkUnitCompile(b *testing.B) {
	prog := Generate(4242)
	ins, err := Instrument(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := LLVM(O3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(ins, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPass times each pass of the llvm-sim -O3 schedule in isolation,
// at its natural schedule position: outside the timer, the IR is rebuilt
// and advanced through the schedule prefix ahead of the pass's first
// occurrence; the timed body runs that single pass. A middle-end regression
// thereby localizes to a pass instead of the whole campaign.
func BenchmarkPass(b *testing.B) {
	cfg := pipeline.New(pipeline.LLVM, pipeline.O3)
	passes := cfg.Passes()
	o := cfg.Options()
	prog := Generate(4242)
	ins, err := Instrument(prog)
	if err != nil {
		b.Fatal(err)
	}
	seen := map[string]bool{}
	for idx, p := range passes {
		if seen[p.Name] {
			continue // first occurrence: the most heavily loaded position
		}
		seen[p.Name] = true
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := lower.Lower(ins.Prog)
				if err != nil {
					b.Fatal(err)
				}
				if err := opt.Pipeline(m, o, passes[:idx], 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := opt.Pipeline(m, o, passes[idx:idx+1], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end campaign units/sec — the
// number the whole middle-end hot-path work optimizes for. Each iteration
// runs a small real campaign over a fixed 12-seed corpus: all ten default
// configurations (programs×10 units) serially (j1) and at full width
// (jmax), and, in sweep, what one job of a dce-serve sweep computes —
// gcc-sim and llvm-sim at -O3 with remarks, one worker. The derived units/s
// metric is what EXPERIMENTS.md tracks before/after; B/op and allocs/op
// are nearly deterministic (scripts/check.sh gates sweep's B/op).
func BenchmarkCampaignThroughput(b *testing.B) {
	const programs = 12
	variants := []struct {
		name string
		opts corpus.Options
	}{
		{"j1", corpus.Options{Workers: 1}},
		{"jmax", corpus.Options{Workers: runtime.GOMAXPROCS(0)}},
		{"sweep", corpus.Options{
			Workers:       1,
			Personalities: []pipeline.Personality{pipeline.GCC, pipeline.LLVM},
			Levels:        []pipeline.Level{pipeline.O3},
			Remarks:       true,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var units int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg := metrics.New()
				o := v.opts
				o.Programs, o.BaseSeed, o.Metrics = programs, 7100, reg
				c, err := corpus.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				if c.Stats.Programs != programs {
					b.Fatalf("short campaign: %d of %d programs", c.Stats.Programs, programs)
				}
				units += reg.Counter(metrics.CounterUnits).Value()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(units)/secs, "units/s")
			}
		})
	}
}

// BenchmarkCampaignRetained reports the heap a finished campaign keeps
// live: a fixed 30-program campaign at -j 1, dce-campaign's default -n,
// whose Campaign holds every program's results: each unit's assembly and
// analysis and each program's instrumented source, but no module. The
// retained-B metric is HeapAlloc after a collection with the campaign
// reachable, less the same after it is dropped, so the pooled pass
// scratch and everything else the process keeps cancel out. It is
// deterministic to within a few kilobytes (scripts/check.sh gates it).
func BenchmarkCampaignRetained(b *testing.B) {
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var retained uint64
	for i := 0; i < b.N; i++ {
		c, err := corpus.Run(corpus.Options{Programs: 30, BaseSeed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		held := liveHeap()
		runtime.KeepAlive(c)
		retained = held - liveHeap()
	}
	b.ReportMetric(float64(retained), "retained-B")
}
