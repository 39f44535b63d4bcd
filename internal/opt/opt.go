// Package opt implements the optimization passes shared by both compiler
// personalities.
//
// Most passes are function-scoped: a pure function of one body plus
// module-level facts. Interprocedural passes declare themselves
// module-scoped and report which functions they changed. The pass manager
// (ObservedPipeline) exploits the split with per-function dirty tracking:
// a pass instance re-visits a function only when something changed it since
// the same pass last saw it, so clean functions are never re-scanned. The
// two personalities (gcc-sim, llvm-sim) differ only in which passes run, in
// what order, and with which Options knobs — exactly the axes along which
// the paper's bisected regressions vary (pass management, analysis
// precision, pass interactions). See internal/pipeline for the pass
// schedules and DESIGN.md for the mapping from knobs to paper findings.
package opt

import (
	"fmt"
	"time"

	"dcelens/internal/ir"
)

// GlobalPropLevel selects the precision of the interprocedural global value
// analysis (the paper's central example of diverging compiler strength:
// GCC's analysis is flow-insensitive, Listing 4a/6a).
type GlobalPropLevel int

const (
	// GlobalPropNone disables the analysis.
	GlobalPropNone GlobalPropLevel = iota
	// GlobalPropNoStores folds loads of a non-escaping internal global only
	// when the module contains no store to it at all (GCC-like,
	// flow-insensitive).
	GlobalPropNoStores
	// GlobalPropSameConst additionally folds when every store writes the
	// same constant the initializer set (LLVM >= 3.8 behaviour).
	GlobalPropSameConst
	// GlobalPropFlowAware additionally lets loads that no store can reach
	// (on any CFG path) observe the initializer (LLVM <= 3.7 behaviour —
	// its loss is the regression in paper Listing 6a).
	GlobalPropFlowAware
)

// AliasLevel selects pointer-analysis precision.
type AliasLevel int

const (
	// AliasConservative: only identical-global and distinct-direct-global
	// queries are answered; anything involving loaded pointers may alias.
	AliasConservative AliasLevel = iota
	// AliasBaseObject: distinct base objects (globals, allocas) never
	// alias; loaded pointers may alias only address-taken objects.
	AliasBaseObject
)

// Options are the tunable knobs of the middle-end. Each personality/version
// is a distinct Options value; commits in the version history mutate single
// fields (see internal/pipeline/history.go).
type Options struct {
	GlobalProp GlobalPropLevel
	Alias      AliasLevel

	// FoldPtrCmpNonzeroOffset folds &a == &b+k for k != 0 (distinct
	// objects never compare equal). LLVM's EarlyCSE historically folded
	// only the k == 0 case — paper Listing 3.
	FoldPtrCmpNonzeroOffset bool

	// ShiftNonzeroRelation enables the VRP relation
	// "x<<y != 0 when x != 0 and the shift provably loses no bits"
	// (paper Listing 9a, fixed in GCC by 5f9ccf17de7).
	ShiftNonzeroRelation bool

	// ConstArrayLoadFold folds loads with unknown index from a never-written
	// array whose elements are all the same constant (paper Listing 9f).
	ConstArrayLoadFold bool

	// LoadForwarding enables store-to-load forwarding in GVN.
	LoadForwarding bool

	// WidenPointerLoopStores re-types pointer stores in loops (the
	// "vectorize pointer data as unsigned long" artifact of paper Listing
	// 9e); widened stores defeat store-to-load forwarding.
	WidenPointerLoopStores bool

	// AggressiveUnswitch unswitches loops even when the resulting select
	// pattern blocks later constant propagation (the LLVM loop-unswitching
	// regression of paper Listings 7/8a).
	AggressiveUnswitch bool

	// KeepSRAClones retains specialized argument-promotion clones that are
	// never called (the interprocedural-SRA leftover of paper Listing 9b).
	KeepSRAClones bool

	// InlineBudget is the maximum instruction count of an inlinee; 0
	// disables inlining.
	InlineBudget int

	// UnrollMaxTrip fully unrolls counted loops with trip count <= this;
	// 0 disables unrolling.
	UnrollMaxTrip int

	// RedundantStoreElim removes stores that provably rewrite the value a
	// location already holds (GCC misses this in paper Listings 1c/4a).
	RedundantStoreElim bool

	// GlobalLocalize demotes non-escaping internal globals whose accesses
	// are confined to main into stack slots (LLVM GlobalOpt's localization;
	// see LocalizeGlobals). The decisive llvm-sim advantage on Csmith-style
	// corpora.
	GlobalLocalize bool

	// PessimisticEscape makes the escape analysis assume every global
	// escapes (ablation hook: quantifies how much of the oracle's power
	// rests on knowing that opaque marker calls cannot clobber private
	// statics — see BenchmarkAblationNoEscapeAnalysis).
	PessimisticEscape bool

	// VerifyEachPass runs the SSA verifier after every pass instead of
	// once per Pipeline call — what an assertions-enabled compiler build
	// does. Tests enable it; production-style campaigns rely on the final
	// verification plus the semantic execution checks.
	VerifyEachPass bool

	// remarks carries the remark sink plus the executing pass instance's
	// position and applied count (see remark.go). Set only by
	// ObservedPipeline, and only when the observer implements RemarkSink;
	// nil otherwise, so every emission helper is one pointer comparison on
	// the uninstrumented path. Unexported: it is pipeline plumbing, not a
	// personality knob, and must never differ between Options values being
	// compared.
	remarks *remarkCtx
}

// Invalidation is how a module-scoped pass tells the pass manager which
// functions it changed, so dirty tracking stays exact across
// interprocedural transforms. Inline reports the callers it spliced into,
// localization reports main, pure removals (GlobalDCE) report nothing.
type Invalidation struct {
	funcs []*ir.Func
	all   bool
	facts bool
}

// Func marks one function as changed by the pass.
func (inv *Invalidation) Func(f *ir.Func) {
	if f != nil {
		inv.funcs = append(inv.funcs, f)
	}
}

// All conservatively marks every function as changed.
func (inv *Invalidation) All() { inv.all = true }

// Facts records that module-level analysis facts (the escape flags on
// globals) changed, so passes that consume them must re-visit even bodies
// that did not change.
func (inv *Invalidation) Facts() { inv.facts = true }

// Pass is one transformation or analysis. Exactly one of Fn (function
// scope) or Run (module scope) is set.
type Pass struct {
	Name string

	// Fn is the function-scoped entry point; the pass manager sweeps it
	// over the defined functions that changed since this pass last saw
	// them.
	Fn func(f *ir.Func, o Options) bool

	// Pre runs once per instance of a function-scoped pass, before the
	// sweep — module-level analyses the sweep consumes (escape
	// recomputation). It returns true when the facts it maintains changed,
	// which forces the sweep to re-visit every function. The manager skips
	// Pre itself when nothing in the module changed since it last ran.
	Pre func(m *ir.Module, o Options) bool

	// Post runs after the sweep of a function-scoped pass — module-level
	// epilogues (GVN's cross-function store-to-load forwarding). Changed
	// functions are reported through inv.
	Post func(m *ir.Module, o Options, inv *Invalidation) bool

	// Run is the module-scoped entry point for interprocedural passes.
	// Changed functions are reported through inv; the manager skips the
	// whole pass when nothing in the module changed since its last run.
	Run func(m *ir.Module, o Options, inv *Invalidation) bool

	// Reads projects Options onto the fields the pass, its Pre and Post
	// hooks and their helpers read; nil means it reads none. Two instances
	// of the pass whose projections agree transform the same module
	// identically, which is what lets a program's configurations share the
	// instance (internal/core's compile trie). TestPassReads checks every
	// declaration.
	Reads func(Options) Options
}

// Key is what decides whether two configurations can share an instance of
// the pass: the pass, the options it reads, and whether the manager
// verifies after it.
type Key struct {
	Pass   string
	Reads  Options
	Verify bool
}

// Key returns the pass's sharing key under o.
func (p Pass) Key(o Options) Key {
	k := Key{Pass: p.Name, Verify: o.VerifyEachPass}
	if p.Reads != nil {
		k.Reads = p.Reads(o)
	}
	return k
}

// PassStats describes one executed pass instance to an Observer: the
// changed flag and wall time as before, plus the dirty-tracking outcome —
// how many defined functions the instance actually visited and how many it
// skipped as provably clean.
type PassStats struct {
	Changed  bool
	Duration time.Duration
	// FuncsVisited counts defined functions the pass scanned; a
	// module-scoped pass visits all of them or (when skipped) none.
	FuncsVisited int
	// FuncsSkipped counts defined functions skipped as unchanged since the
	// pass last saw them.
	FuncsSkipped int
	// Applied counts the transformations the instance applied. It is
	// counted only while the observer is a RemarkSink (zero otherwise).
	Applied int
}

// Observer watches pass execution inside a Pipeline run. A nil observer
// disables observation at the cost of one pointer comparison per pass, so
// untraced compilations are indistinguishable from the pre-observer
// pipeline. internal/trace provides the standard implementation (per-pass
// profiles and marker provenance); the interface lives here, argument-only,
// so that trace can satisfy it without opt importing trace. A run attaches
// one observer: internal/core composes a compile's consumers into it.
type Observer interface {
	// BeginPipeline sees the module before the first pass runs.
	BeginPipeline(m *ir.Module)
	// AfterPass sees the module after each executed pass instance:
	// the pass name, its position in the schedule, the iteration of the
	// fixpoint loop, and the instance's stats (changed flag, wall time,
	// visited/skipped function counts). Skipped instances still report,
	// with zero visited functions — the schedule shape an observer sees is
	// independent of dirty tracking.
	AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st PassStats)
}

// Pipeline runs passes in order until a fixpoint or maxIters repetitions of
// the whole schedule, whichever comes first. Real pass managers run fixed
// schedules; iterating the schedule a couple of times approximates the
// repeated pass groups (e.g. instcombine/simplifycfg interleavings) that
// production pipelines contain.
func Pipeline(m *ir.Module, o Options, passes []Pass, maxIters int) error {
	return ObservedPipeline(NewRun(m, o, passes, maxIters), nil)
}

// pipeState is the dirty-tracking bookkeeping of one pipeline run.
//
// Soundness of every skip rests on one property: a pass is a deterministic
// function of (the function body, the module-level facts it refreshes
// itself, Options), and no function-scoped pass reads another function's
// body. So a (pass, function) visit whose inputs are unchanged since the
// pass last visited reproduces its previous no-change outcome, and
// skipping it preserves the final IR, the changed flags, and the iteration
// count bit-for-bit.
type pipeState struct {
	// pid maps schedule positions to dense pass identities (by name):
	// instances of the same pass at different schedule positions share
	// dirty-tracking state, so the second instcombine of a schedule skips
	// functions the first one already left clean. names maps them back.
	pid   []int
	names []string

	// seen[f][id] holds 1 + the generation f had when pass id last started
	// a visit of f; 0 means never visited. The pass re-visits whenever the
	// current generation differs — including changes the pass itself made,
	// so one-transform-per-invocation passes (unroll, unswitch) keep
	// getting re-invoked until they settle.
	seen map[*ir.Func][]uint64

	// moduleGen counts module-state changes (any function generation bump,
	// any module-pass-reported change). lastRun/lastPre record it per pass
	// identity: a module pass or a Pre hook re-runs only when the module
	// changed since it last did.
	moduleGen uint64
	lastRun   []uint64
	lastPre   []uint64

	// factsGen counts changes to the module-level analysis facts (escape
	// flags); lastFacts records, per pass identity, the facts generation a
	// fact-consuming pass last swept under. A stale value forces the sweep
	// to re-visit every function even if no body changed.
	factsGen  uint64
	lastFacts []uint64
}

func newPipeState(passes []Pass) *pipeState {
	ps := &pipeState{
		pid:  make([]int, len(passes)),
		seen: make(map[*ir.Func][]uint64),
	}
	ids := make(map[string]int, len(passes))
	for i, p := range passes {
		id, ok := ids[p.Name]
		if !ok {
			id = len(ids)
			ids[p.Name] = id
			ps.names = append(ps.names, p.Name)
		}
		ps.pid[i] = id
	}
	n := len(ps.names)
	ps.lastRun = make([]uint64, n)
	ps.lastPre = make([]uint64, n)
	ps.lastFacts = make([]uint64, n)
	ps.moduleGen = 1 // so the zero value of lastRun/lastPre means "never"
	ps.factsGen = 1
	return ps
}

// rebase returns the state as a run of passes sees it, over the functions
// funcs maps the tracked ones to. Identities move by pass name; a pass
// the new schedule lacks has never run (the schedules share what ran), so
// its state is all zero and nothing is lost.
func (ps *pipeState) rebase(passes []Pass, funcs func(*ir.Func) *ir.Func) *pipeState {
	nps := newPipeState(passes)
	nps.moduleGen, nps.factsGen = ps.moduleGen, ps.factsGen
	to := make([]int, len(ps.names))
	for old, name := range ps.names {
		to[old] = -1
		for id, n := range nps.names {
			if n == name {
				to[old] = id
				nps.lastRun[id] = ps.lastRun[old]
				nps.lastPre[id] = ps.lastPre[old]
				nps.lastFacts[id] = ps.lastFacts[old]
			}
		}
	}
	for f, sn := range ps.seen {
		nf := funcs(f)
		if nf == nil {
			continue
		}
		nsn := make([]uint64, len(nps.names))
		for old, id := range to {
			if id >= 0 {
				nsn[id] = sn[old]
			}
		}
		nps.seen[nf] = nsn
	}
	return nps
}

func (ps *pipeState) seenOf(f *ir.Func) []uint64 {
	sn := ps.seen[f]
	if sn == nil {
		sn = make([]uint64, len(ps.names))
		ps.seen[f] = sn
	}
	return sn
}

// applyInvalidation folds a module pass's report into the tracking state.
func (ps *pipeState) applyInvalidation(m *ir.Module, inv *Invalidation, changed bool) {
	if inv.all {
		for _, f := range m.Funcs {
			if !f.External {
				f.MarkMutated()
			}
		}
	}
	for _, f := range inv.funcs {
		f.MarkMutated()
	}
	if inv.facts {
		ps.factsGen++
	}
	if changed || inv.all || len(inv.funcs) > 0 {
		ps.moduleGen++
	}
}

// runModulePass executes (or provably skips) one module-scoped instance.
func (ps *pipeState) runModulePass(m *ir.Module, p Pass, id int, o Options) (bool, PassStats) {
	var st PassStats
	defined := 0
	for _, f := range m.Funcs {
		if !f.External {
			defined++
		}
	}
	if ps.lastRun[id] == ps.moduleGen {
		st.FuncsSkipped = defined
		return false, st
	}
	ps.lastRun[id] = ps.moduleGen
	var inv Invalidation
	changed := p.Run(m, o, &inv)
	ps.applyInvalidation(m, &inv, changed)
	st.Changed = changed
	st.FuncsVisited = defined
	return changed, st
}

// runFuncPass executes one function-scoped instance: the optional Pre hook,
// the dirty-filtered sweep, and the optional Post epilogue.
func (ps *pipeState) runFuncPass(m *ir.Module, p Pass, id int, o Options) (bool, PassStats) {
	var st PassStats
	changed := false
	if p.Pre != nil && ps.lastPre[id] != ps.moduleGen {
		ps.lastPre[id] = ps.moduleGen
		if p.Pre(m, o) {
			ps.factsGen++
		}
	}
	forceAll := ps.lastFacts[id] != ps.factsGen
	ps.lastFacts[id] = ps.factsGen
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		sn := ps.seenOf(f)
		g := f.Gen()
		if !forceAll && sn[id] == g+1 {
			st.FuncsSkipped++
			continue
		}
		st.FuncsVisited++
		sn[id] = g + 1
		if p.Fn(f, o) {
			f.MarkMutated()
			changed = true
		}
		if f.Gen() != g {
			// Covers both the reported change and silent cleanups the pass
			// flagged via MarkMutated without counting them as changes.
			ps.moduleGen++
		}
	}
	if p.Post != nil {
		var inv Invalidation
		if p.Post(m, o, &inv) {
			changed = true
		}
		ps.applyInvalidation(m, &inv, changed)
	}
	st.Changed = changed
	return changed, st
}

// Run is one pipeline run over a module, paused between two pass
// instances: the schedule and options, the position of the next instance
// (iteration and schedule index), whether the iteration changed anything
// so far, and the dirty-tracking state. Step executes one instance with no
// observer, Clone and Retarget fork the run where configurations' schedules
// diverge, and ObservedPipeline runs it to the end. A Run is used by one
// goroutine at a time.
type Run struct {
	m        *ir.Module
	o        Options
	passes   []Pass
	maxIters int
	ps       *pipeState

	iter, pos int
	changed   bool

	// log holds the instances Step executed, for ObservedPipeline to report
	// to its observer before it continues.
	log []Event
}

// Event is one pass instance Step executed: what ObservedPipeline reports
// for it, and the remarks it emitted, as the observer would have seen them
// had it been attached when the instance ran.
type Event struct {
	Pass          string
	ScheduleIndex int
	Iteration     int
	Stats         PassStats
	Remarks       []Remark
}

// NewRun returns the pipeline over m paused before its first pass.
func NewRun(m *ir.Module, o Options, passes []Pass, maxIters int) *Run {
	if maxIters < 1 {
		maxIters = 1
	}
	return &Run{m: m, o: o, passes: passes, maxIters: maxIters, ps: newPipeState(passes)}
}

// Module returns the module the run optimizes.
func (r *Run) Module() *ir.Module { return r.m }

// Log returns the instances Step executed, in order.
func (r *Run) Log() []Event { return r.log }

// Step executes the next instance of the first iteration with no observer
// attached and logs it. With remarks set, the instance emits its remarks
// into the log and counts what it applied, as it would for a remark sink.
func (r *Run) Step(remarks bool) error {
	if r.iter > 0 || r.pos >= len(r.passes) {
		return fmt.Errorf("opt: step past the first iteration")
	}
	p, o := r.passes[r.pos], r.o
	var rl remarkLog
	if remarks {
		o.remarks = &remarkCtx{sink: &rl, pass: p.Name, index: r.pos}
	}
	start := time.Now()
	changed, st := r.exec(p, o)
	st.Duration = time.Since(start)
	if remarks {
		st.Applied = o.remarks.applied
	}
	r.changed = r.changed || changed
	r.log = append(r.log, Event{Pass: p.Name, ScheduleIndex: r.pos, Stats: st, Remarks: rl})
	r.pos++
	if o.VerifyEachPass {
		if err := ir.Verify(r.m); err != nil {
			return fmt.Errorf("opt: after pass %s (iteration %d): %w", p.Name, 0, err)
		}
	}
	return nil
}

// remarkLog is the remark sink of a Step.
type remarkLog []Remark

func (l *remarkLog) Remark(r Remark) { *l = append(*l, r) }

// exec executes the instance of p at the run's position under o.
func (r *Run) exec(p Pass, o Options) (bool, PassStats) {
	if p.Run != nil {
		return r.ps.runModulePass(r.m, p, r.ps.pid[r.pos], o)
	}
	return r.ps.runFuncPass(r.m, p, r.ps.pid[r.pos], o)
}

// Clone returns a copy of the run on a deep copy of its module
// (ir.Module.Clone), so both continue independently.
func (r *Run) Clone() *Run {
	m := r.m.Clone()
	funcs := make(map[*ir.Func]*ir.Func, len(r.m.Funcs))
	for i, f := range r.m.Funcs {
		funcs[f] = m.Funcs[i]
	}
	c := *r
	c.m = m
	c.ps = r.ps.rebase(r.passes, func(f *ir.Func) *ir.Func { return funcs[f] })
	c.log = r.log[:len(r.log):len(r.log)]
	return &c
}

// Retarget continues the run under another schedule and options. The new
// schedule must agree with the old one on every instance executed so far
// (pass and the options it reads); the dirty-tracking state moves over by
// pass name.
func (r *Run) Retarget(o Options, passes []Pass, maxIters int) {
	if maxIters < 1 {
		maxIters = 1
	}
	r.ps = r.ps.rebase(passes, func(f *ir.Func) *ir.Func { return f })
	r.o, r.passes, r.maxIters = o, passes, maxIters
}

// ObservedPipeline runs r to the end with an observer attached to every
// pass instance; obs may be nil. A resumed run first reports the instances
// Step executed — their remarks, then the instance itself — so the
// observer sees the calls an unpaused run would have made, in the same
// order.
func ObservedPipeline(r *Run, obs Observer) error {
	m, o := r.m, r.o
	if obs != nil {
		obs.BeginPipeline(m)
		// An observer that is also a remark sink turns pass-side remark
		// emission on for this run; the shared context rides the Options
		// value into every pass invocation.
		if sink, ok := obs.(RemarkSink); ok {
			o.remarks = &remarkCtx{sink: sink}
		}
		for _, ev := range r.log {
			st := ev.Stats
			if o.remarks != nil {
				for _, rm := range ev.Remarks {
					o.remarks.sink.Remark(rm)
				}
			} else {
				st.Applied = 0
			}
			obs.AfterPass(m, ev.Pass, ev.ScheduleIndex, ev.Iteration, st)
		}
	}
	r.log = nil
	for ; r.iter < r.maxIters; r.iter++ {
		for ; r.pos < len(r.passes); r.pos++ {
			p := r.passes[r.pos]
			var start time.Time
			if obs != nil {
				start = time.Now()
			}
			if o.remarks != nil {
				*o.remarks = remarkCtx{sink: o.remarks.sink, pass: p.Name, index: r.pos, iter: r.iter}
			}
			passChanged, st := r.exec(p, o)
			if passChanged {
				r.changed = true
			}
			if obs != nil {
				st.Duration = time.Since(start)
				if o.remarks != nil {
					st.Applied = o.remarks.applied
				}
				obs.AfterPass(m, p.Name, r.pos, r.iter, st)
			}
			if o.VerifyEachPass {
				if err := ir.Verify(m); err != nil {
					return fmt.Errorf("opt: after pass %s (iteration %d): %w", p.Name, r.iter, err)
				}
			}
		}
		if !r.changed {
			break
		}
		r.pos, r.changed = 0, false
	}
	if !o.VerifyEachPass {
		if err := ir.Verify(m); err != nil {
			return fmt.Errorf("opt: after pipeline: %w", err)
		}
	}
	return nil
}
