package main

// The triage workload is the paper's §4.3 and Tables 3–5 follow-up, what
// dce-report -triage -bisect runs. Set-up is a campaign on the workload
// seed (at GOMAXPROCS workers, dce-report's default). The timed region
// bisects each personality's regression candidates under a fixed cap;
// then the campaign's primary findings are reduced per compiler in report
// order under a fixed reduce.Options bound, deduplicated and fix-checked
// with TriageCases. The work is many small compiles and interpreter runs
// plus the reducer's own clone-and-check loop, all serial.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dcelens/internal/asm"
	"dcelens/internal/ast"
	"dcelens/internal/bisect"
	"dcelens/internal/corpus"
	"dcelens/internal/instrument"
	"dcelens/internal/lower"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/reduce"
	"dcelens/internal/sema"
)

const (
	triagePrograms = 48 // set-up campaign size
	// triageReplayPrograms is how many set-up programs the traced run
	// replays through the compile layers.
	triageReplayPrograms = 12
	// triageTracedFindings is how many reductions the traced run replays.
	triageTracedFindings = 4
	// triageBisectCap is the BisectRegressions cap per personality, high
	// enough that one run bisects tens of candidates.
	triageBisectCap = 60
	// triageReduceShare is the share of -seconds spent reducing after the
	// bisection. One reduction takes from 10 ms to several seconds
	// (candidates that run into the interpreter's step limit cost seconds
	// each), so findings per minute spreads by tens of percent between
	// seeds at this run length.
	triageReduceShare = 0.25
)

// reduceOpts bounds every reduction.
var reduceOpts = reduce.Options{MaxChecks: 24, MaxRounds: 4}

// bisectOrder is the personality order dce-report bisects in.
var bisectOrder = []pipeline.Personality{pipeline.LLVM, pipeline.GCC}

func triageOptions(base int64) corpus.Options {
	return corpus.Options{Programs: triagePrograms, BaseSeed: base}
}

// reduceQueue lists the findings triage reduces: per personality, the
// primary compiler-diff then level-diff findings in report order (the
// order dce-report uses), interleaved across personalities so that the
// first k reductions cover both compilers.
func reduceQueue(c *corpus.Campaign) []corpus.Finding {
	var per [][]corpus.Finding
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		fs := c.FindingsOf(corpus.KindCompilerDiff, p, true)
		per = append(per, append(fs, c.FindingsOf(corpus.KindLevelDiff, p, true)...))
	}
	var out []corpus.Finding
	for i := 0; ; i++ {
		added := false
		for _, fs := range per {
			if i < len(fs) {
				out = append(out, fs[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// oracleConfigs are the target and reference compilers of a finding's
// interestingness test, as ReduceFinding builds them.
func oracleConfigs(f corpus.Finding) (target, reference *pipeline.Config) {
	target = pipeline.New(f.Personality, f.Level)
	if f.Kind == corpus.KindCompilerDiff {
		other := pipeline.GCC
		if f.Personality == pipeline.GCC {
			other = pipeline.LLVM
		}
		return target, pipeline.New(other, pipeline.O3)
	}
	return target, pipeline.New(f.Personality, pipeline.O1)
}

// checkReduced checks one reduced case: it re-parses and type-checks,
// still satisfies its interestingness test, and is no larger than the
// program it came from. reduce.Reduce returns the input unchanged when the
// input itself fails the test — which happens for a level-diff finding
// eliminated at -O2 but not at -O1, ReduceFinding's reference — so an
// unchanged, uninteresting original passes too.
func checkReduced(r *result, c *corpus.Campaign, rc *corpus.ReducedCase) bool {
	f := rc.Finding
	pr := c.Result(f.Seed)
	if pr == nil || pr.Ins == nil {
		r.check(false, "reduced seed %d %s: campaign has no program", f.Seed, f.Marker)
		return false
	}
	prog, err := parser.Parse(rc.Source)
	if err == nil {
		err = sema.Check(prog)
	}
	if err != nil {
		r.check(false, "reduced seed %d %s: does not re-parse: %v", f.Seed, f.Marker, err)
		return false
	}
	target, reference := oracleConfigs(f)
	test := corpus.InterestingnessFor(f.Marker, target, reference)
	ok := test(prog)
	if !ok && rc.Source == ast.Print(pr.Ins.Prog) {
		ok = !test(pr.Ins.Prog)
	}
	r.check(ok, "reduced seed %d %s: no longer interesting", f.Seed, f.Marker)
	before := ast.CountNodes(pr.Ins.Prog)
	small := rc.Nodes <= before
	r.check(small, "reduced seed %d %s: %d nodes after, %d before", f.Seed, f.Marker, rc.Nodes, before)
	return ok && small
}

// aliveAt compiles a program at the first commits of a personality's
// history and reports whether marker survives in the assembly. It goes
// through lower, opt and asm directly, not through the bisect package, so
// it is a probe independent of the bisector.
func aliveAt(ins *instrument.Program, p pipeline.Personality, lvl pipeline.Level, commits int, marker string) (bool, error) {
	m, err := lower.Lower(ins.Prog)
	if err != nil {
		return false, err
	}
	if err := pipeline.AtCommit(p, lvl, commits).CompileObserved(m, nil); err != nil {
		return false, err
	}
	for _, name := range asm.SurvivingMarkers(asm.Emit(m), instrument.IsMarker) {
		if name == marker {
			return true, nil
		}
	}
	return false, nil
}

// checkBisected checks that a bisection outcome is a first bad version:
// an independent probe (aliveAt) finds the marker alive at the outcome's
// commit and eliminated at the commit before it, for one of the
// campaign's programs with that marker. (The history's Regression flag is
// not a valid oracle here: a commit that is not flagged, such as an
// inliner threshold change, can also cost a marker its elimination.)
func checkBisected(r *result, c *corpus.Campaign, o *bisect.Outcome) bool {
	h := pipeline.History(o.Personality)
	ok := o.CommitIndex >= 1 && o.CommitIndex <= len(h) && h[o.CommitIndex-1].ID == o.Commit.ID
	if ok {
		ok = false
		for _, f := range candidates(c, o.Personality, math.MaxInt) {
			if f.Marker != o.Marker {
				continue
			}
			ins := c.Result(f.Seed).Ins
			bad, err1 := aliveAt(ins, o.Personality, o.Level, o.CommitIndex, o.Marker)
			good, err2 := aliveAt(ins, o.Personality, o.Level, o.CommitIndex-1, o.Marker)
			if err1 == nil && err2 == nil && bad && !good {
				ok = true
				break
			}
		}
	}
	r.check(ok, "bisect %s %s: commit %d (%s) is not where the marker stopped being eliminated",
		o.Personality, o.Marker, o.CommitIndex, o.Commit.ID)
	return ok
}

func runTriage(e *env, r *result) error {
	in := e.inputs()
	base := in.Int63n(baseRange)
	var setups []float64
	var c *corpus.Campaign
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if c, err = corpus.Run(triageOptions(base)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", "s", r.timing("setup", "s", setups))
	r.check(len(c.Stats.Errors) == 0, "set-up campaign base %d: errors: %v", base, c.Stats.Errors)

	// Bisection, behind bisects_per_min.
	rss := sampleRSS("self")
	start := time.Now()
	var outcomes []*bisect.Outcome
	bisected := 0
	for _, p := range bisectOrder {
		outs, attempted, err := c.BisectRegressions(p, false, triageBisectCap)
		if err != nil {
			return err
		}
		bisected += attempted
		outcomes = append(outcomes, outs...)
	}
	bisectWall := time.Since(start)
	if bisected == 0 {
		return fmt.Errorf("set-up campaign base %d has no bisection candidate", base)
	}
	r.attempted += bisected

	// Reduction, deduplication and the fix check, behind
	// reduce_findings_per_min (see triageReduceShare).
	queue := reduceQueue(c)
	reduceBudget := time.Duration(float64(e.budget) * triageReduceShare)
	var perReduce []float64
	cases := map[pipeline.Personality][]*corpus.ReducedCase{}
	start = time.Now()
	for _, f := range queue {
		if len(perReduce) > 0 && time.Since(start) >= reduceBudget {
			break
		}
		t := time.Now()
		rc, err := c.ReduceFinding(f, reduceOpts)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "reduce seed %d %s: %v", f.Seed, f.Marker, err)
			continue
		}
		perReduce = append(perReduce, ms(time.Since(t)))
		cases[f.Personality] = append(cases[f.Personality], rc)
	}
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		tr, err := corpus.TriageCases(p, cases[p])
		if err != nil {
			r.check(false, "triage %s: %v", p, err)
			continue
		}
		r.notef("triage %s: reported %d confirmed %d duplicate %d fixed %d", p, tr.Reported, tr.Confirmed, tr.Duplicate, tr.Fixed)
	}
	reduceWall := time.Since(start)
	if err := rss.stop(r); err != nil {
		return err
	}

	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, rc := range cases[p] {
			if !checkReduced(r, c, rc) {
				r.failed++
			}
		}
	}
	flagged := 0
	for _, o := range outcomes {
		if !checkBisected(r, c, o) {
			r.failed++
		}
		if o.Commit.Regression {
			flagged++
		}
	}
	r.notef("%d candidates bisected in %.3fs: %d regressions, %d on commits flagged Regression in the history",
		bisected, bisectWall.Seconds(), len(outcomes), flagged)
	r.notef("%d of %d queued findings reduced in %.3fs", len(perReduce), len(queue), reduceWall.Seconds())
	r.timing("reduction", "ms", perReduce)
	r.set("reduce_findings_per_min", "findings/min", float64(len(perReduce))/reduceWall.Minutes())
	r.set("bisects_per_min", "candidates/min", float64(bisected)/bisectWall.Minutes())
	r.print("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	return nil
}

// bisector replays bisect.Regression's search through bisect.MissedAt,
// timing every probe and, separately, the pipeline.AtCommit config
// assembly each probe performs.
type bisector struct {
	t        *tracer
	parent   int
	trace    int64
	compiles int
}

func (b *bisector) missedAt(ins *instrument.Program, p pipeline.Personality, commits int, marker string) (bool, error) {
	s := time.Now()
	pipeline.AtCommit(p, pipeline.O3, commits)
	mid := time.Now()
	b.t.record("bisect.config", b.parent, b.trace, s, mid)
	missed, err := bisect.MissedAt(ins, p, pipeline.O3, commits, marker)
	b.t.record("bisect.compile", b.parent, b.trace, mid, time.Now())
	b.compiles++
	return missed, err
}

// regression mirrors bisect.Regression: the head must miss the marker, the
// most recent good version before it is located, and the first bad
// version after it is binary-searched. ok is false for a long-standing
// miss.
func (b *bisector) regression(ins *instrument.Program, p pipeline.Personality, marker string) (idx int, ok bool, err error) {
	n := len(pipeline.History(p))
	head, err := b.missedAt(ins, p, n, marker)
	if err != nil || !head {
		return 0, false, err
	}
	good := -1
	for k := n - 1; k >= 0; k-- {
		missed, err := b.missedAt(ins, p, k, marker)
		if err != nil {
			return 0, false, err
		}
		if !missed {
			good = k
			break
		}
	}
	if good < 0 {
		return 0, false, nil
	}
	lo, hi := good, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		missed, err := b.missedAt(ins, p, mid, marker)
		if err != nil {
			return 0, false, err
		}
		if missed {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// candidates lists BisectRegressions' candidates in its order: level-diff
// then compiler-diff findings, one per (seed, marker), at most max.
func candidates(c *corpus.Campaign, p pipeline.Personality, max int) []corpus.Finding {
	fs := append(c.FindingsOf(corpus.KindLevelDiff, p, false), c.FindingsOf(corpus.KindCompilerDiff, p, false)...)
	seen := map[string]bool{}
	var out []corpus.Finding
	for _, f := range fs {
		key := fmt.Sprintf("%d/%s", f.Seed, f.Marker)
		if seen[key] {
			continue
		}
		seen[key] = true
		if len(out) >= max {
			break
		}
		if pr := c.Result(f.Seed); pr == nil || pr.Err != nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

type bisected struct {
	marker string
	commit int
}

func sortBisected(bs []bisected, p pipeline.Personality) {
	h := pipeline.History(p)
	sort.Slice(bs, func(i, j int) bool {
		a, b := h[bs[i].commit-1].ID, h[bs[j].commit-1].ID
		if a != b {
			return a < b
		}
		return bs[i].marker < bs[j].marker
	})
}

// triageLayers measures the reduce and bisect layers on a finished
// campaign and prints their metrics (they exist only where triage runs, so
// they are not on the JSON line). It reduces the first findings of the
// reduction queue with the product's ReduceFinding, then again through
// reduce.Reduce with a timing wrapper around the product's interestingness
// test; and it bisects with the product's BisectRegressions under
// bisectCap, then again through bisect.MissedAt with every probe timed.
// Both replays must reproduce the product's results. It returns the CPU
// and wall time of the product's calls.
func triageLayers(r *result, t *tracer, c *corpus.Campaign, findings, bisectCap int) (cpu float64, wall time.Duration, err error) {
	product := func(fn func() error) error {
		cpu0, w0 := cpuSeconds(), time.Now()
		err := fn()
		wall += time.Since(w0)
		cpu += cpuSeconds() - cpu0
		return err
	}
	var checks, interesting, before, after int
	var inTest, reduceWall time.Duration
	queue := reduceQueue(c)
	queue = queue[:min(len(queue), findings)]
	for i, f := range queue {
		var rc *corpus.ReducedCase
		err := product(func() (err error) {
			rc, err = c.ReduceFinding(f, reduceOpts)
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "reduce seed %d %s: %v", f.Seed, f.Marker, err)
			continue
		}
		target, reference := oracleConfigs(f)
		test := corpus.InterestingnessFor(f.Marker, target, reference)
		root := t.begin("reduce", 0, int64(i))
		wrapped := func(p *ast.Program) bool {
			s := time.Now()
			ok := test(p)
			end := time.Now()
			t.record("reduce.check", root, int64(i), s, end)
			inTest += end.Sub(s)
			checks++
			if ok {
				interesting++
			}
			return ok
		}
		res := reduce.Reduce(c.Result(f.Seed).Ins.Prog, wrapped, reduceOpts)
		reduceWall += t.end(root)
		before += res.NodesBefore
		after += res.NodesAfter
		r.check(ast.Print(res.Program) == rc.Source && res.NodesAfter == rc.Nodes,
			"fidelity: seed %d %s: traced reduction differs from ReduceFinding (so would its dedup hash)", f.Seed, f.Marker)
		checkReduced(r, c, rc)
	}
	n := float64(len(queue))
	r.print("reduce.checks_per_finding", "count", ratio(float64(checks), n))
	r.print("reduce.check_ms", "ms", ratio(ms(inTest), float64(checks)))
	r.print("reduce.self_ms", "ms", ratio(ms(reduceWall-inTest), n))
	r.print("reduce.interesting_ratio", "ratio", ratio(float64(interesting), float64(checks)))
	r.print("reduce.shrink_ratio", "ratio", ratio(float64(after), float64(before)))
	r.notef("interp.runs_per_finding is not measured: the interpreter runs happen inside corpus.InterestingnessFor")

	b := &bisector{t: t}
	cands := 0
	for _, p := range bisectOrder {
		var outs []*bisect.Outcome
		var attempted int
		if err := product(func() (err error) {
			outs, attempted, err = c.BisectRegressions(p, false, bisectCap)
			return err
		}); err != nil {
			return 0, 0, err
		}
		r.attempted += attempted
		var want []bisected
		for _, o := range outs {
			checkBisected(r, c, o)
			want = append(want, bisected{o.Marker, o.CommitIndex})
		}
		var got []bisected
		cs := candidates(c, p, bisectCap)
		for i, f := range cs {
			b.trace = int64(i)
			b.parent = t.begin("bisect", 0, b.trace)
			idx, ok, err := b.regression(c.Result(f.Seed).Ins, p, f.Marker)
			t.end(b.parent)
			if err != nil {
				return 0, 0, err
			}
			if ok {
				got = append(got, bisected{f.Marker, idx})
			}
		}
		cands += len(cs)
		sortBisected(got, p)
		r.check(attempted == len(cs), "fidelity: %s: %d candidates bisected, replay has %d", p, attempted, len(cs))
		r.check(fmt.Sprint(got) == fmt.Sprint(want), "fidelity: %s: replayed bisection %v, product %v", p, got, want)
	}
	r.print("bisect.compiles_per_candidate", "count", ratio(float64(b.compiles), float64(cands)))
	r.print("bisect.compile_ms", "ms", t.msPer("bisect.compile", t.count["bisect.compile"]))
	r.print("bisect.config_ms", "ms", t.msPer("bisect.config", t.count["bisect.config"]))
	return cpu, wall, nil
}

func traceTriage(e *env, r *result) error {
	in := e.inputs()
	tc, err := tracedCampaign(r, triageOptions(in.Int63n(baseRange)), triageReplayPrograms)
	if err != nil {
		return err
	}
	t := tc.rp.t
	cpu, wall, err := triageLayers(r, t, tc.c, triageTracedFindings, triageBisectCap)
	if err != nil {
		return err
	}
	// Triage assembles its configs through pipeline.AtCommit, per probe.
	r.set("pipeline.config_ms", "ms", t.msPer("bisect.config", t.count["bisect.config"]))
	r.set("cpu_util", "ratio", cpu/(wall.Seconds()*float64(runtime.NumCPU())))
	if err := commonLayers(e, r, tc.c); err != nil {
		return err
	}
	return tc.writeSpans(e)
}
