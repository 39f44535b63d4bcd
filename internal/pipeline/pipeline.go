// Package pipeline assembles the two compiler personalities of the
// reproduction — gcc-sim and llvm-sim — from the shared pass library in
// internal/opt.
//
// A personality is not a fork of the middle-end: it is a pass schedule per
// optimization level plus a set of Options knobs, evolved over a synthetic
// commit history (history.go). This mirrors how the paper's missed
// optimizations arise: from analysis-precision differences, pass-ordering
// choices, and individual commits, not from fundamentally different
// compilers.
package pipeline

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/opt"
)

// Level is an optimization level.
type Level int

const (
	O0 Level = iota
	O1
	Os
	O2
	O3
)

var levelNames = map[Level]string{O0: "-O0", O1: "-O1", Os: "-Os", O2: "-O2", O3: "-O3"}

func (l Level) String() string { return levelNames[l] }

// Levels lists all levels in ascending optimization strength (with -Os
// between -O1 and -O2, as in the paper's tables).
var Levels = []Level{O0, O1, Os, O2, O3}

// Personality identifies a simulated compiler.
type Personality string

const (
	GCC  Personality = "gcc-sim"
	LLVM Personality = "llvm-sim"
)

// Config is a fully-assembled compiler: personality, level, version.
type Config struct {
	Personality Personality
	Level       Level
	// CommitIndex is the number of history commits applied (the version).
	CommitIndex int

	opts     opt.Options
	schedule []opt.Pass
	iters    int
}

// Name returns a human-readable compiler identity, e.g.
// "gcc-sim@27f3a1b -O3": the ID of the last commit applied, "base" before
// the first. Indices past the history count into FutureFixes, so
// FutureConfig is named after its last fix.
func (c *Config) Name() string {
	h := History(c.Personality)
	id := "base"
	if n := c.CommitIndex; n > len(h) {
		if fixes := FutureFixes(c.Personality); n-len(h) <= len(fixes) {
			id = fixes[n-len(h)-1].ID
		}
	} else if n > 0 {
		id = h[n-1].ID
	}
	return fmt.Sprintf("%s@%s %s", c.Personality, id, c.Level)
}

// Options exposes the assembled knob set (read-only use).
func (c *Config) Options() opt.Options { return c.opts }

// Schedule returns the pass names of the assembled schedule, in order.
// One schedule iteration executes each entry once; the pass manager runs
// up to Iterations() repetitions.
func (c *Config) Schedule() []string {
	names := make([]string, len(c.schedule))
	for i, p := range c.schedule {
		names[i] = p.Name
	}
	return names
}

// Iterations returns the pass manager's maximum schedule repetitions.
func (c *Config) Iterations() int { return c.iters }

// Passes returns the assembled schedule itself (read-only use). The
// per-pass benchmark family uses it to drive single passes at their
// natural schedule position.
func (c *Config) Passes() []opt.Pass { return c.schedule }

// CompileObserved optimizes the module in place according to the
// configuration, reporting every executed pass instance to obs (nil
// disables observation). An obs that is also an opt.RemarkSink switches
// the passes' remark emission on. internal/core.Compile is the full
// lower → optimize → emit path built on Start and Finish.
func (c *Config) CompileObserved(m *ir.Module, obs opt.Observer) error {
	return c.Finish(c.Start(m), obs)
}

// Start returns the configuration's pipeline over m, paused before its
// first pass.
func (c *Config) Start(m *ir.Module) *opt.Run {
	return opt.NewRun(m, c.opts, c.schedule, c.iters)
}

// Retarget continues r, a run some other configuration started, as this
// configuration's pipeline. The two schedules must agree on every instance
// r executed so far.
func (c *Config) Retarget(r *opt.Run) { r.Retarget(c.opts, c.schedule, c.iters) }

// Finish runs r, one of this configuration's pipelines, to the end,
// reporting every pass instance to obs as CompileObserved does.
func (c *Config) Finish(r *opt.Run, obs opt.Observer) error {
	if err := opt.ObservedPipeline(r, obs); err != nil {
		return fmt.Errorf("%s: %w", c.Name(), err)
	}
	return nil
}

// New returns the personality at the latest version for the given level.
func New(p Personality, lvl Level) *Config {
	return AtCommit(p, lvl, len(History(p)))
}

// AtCommit returns the personality as of the first `commits` history
// entries (0 = the pre-history base). Bisection walks this.
func AtCommit(p Personality, lvl Level, commits int) *Config {
	b := baseBuild(p)
	h := History(p)
	if commits > len(h) {
		commits = len(h)
	}
	for _, c := range h[:commits] {
		c.Apply(&b)
	}
	cfg := assemble(p, lvl, b)
	cfg.CommitIndex = commits
	return cfg
}

// FutureConfig returns the personality with the post-release fixes of
// FutureFixes applied on top of the full history. The triage model uses it
// to decide which reported missed optimizations count as "fixed" (Table 5).
func FutureConfig(p Personality, lvl Level) *Config {
	b := baseBuild(p)
	for _, c := range History(p) {
		c.Apply(&b)
	}
	for _, c := range FutureFixes(p) {
		c.Apply(&b)
	}
	cfg := assemble(p, lvl, b)
	cfg.CommitIndex = len(History(p)) + len(FutureFixes(p))
	return cfg
}

// Build is the mutable state a commit history evolves: the option knobs and
// the scheduling flags that differ between versions.
type Build struct {
	Opts opt.Options

	// Schedule shaping.
	UnswitchAtO3        bool // run loop unswitching in the -O3 pipeline
	UnswitchEarly       bool // ...in the early loop pipeline, with freeze (regression)
	WidenAtO3           bool // "vectorize" pointer loop stores at -O3
	AliasO3Conservative bool // degrade alias precision at -O3 (regression)
	KeepSRAAtO3         bool // keep argument-promotion clones at -O3
	JumpThreadAtO2      bool
	InlineBudget        int
	UnrollTrips         int
}

// assemble produces the concrete Config for a level from a Build.
func assemble(p Personality, lvl Level, b Build) *Config {
	c := &Config{Personality: p, Level: lvl}
	o := b.Opts

	switch lvl {
	case O0:
		// Frontends fold constant expressions even at -O0; nothing else.
		o = opt.Options{}
		c.schedule = []opt.Pass{opt.InstCombine, opt.SimplifyCFG}
		c.iters = 1

	case O1:
		o.InlineBudget = 0
		o.UnrollMaxTrip = 0
		o.WidenPointerLoopStores = false
		o.AggressiveUnswitch = false
		o.KeepSRAClones = false
		c.schedule = []opt.Pass{
			opt.Mem2Reg, opt.IPSCCP, opt.SCCP, opt.InstCombine, opt.SimplifyCFG,
			opt.GVN, opt.InstCombine, opt.SimplifyCFG, opt.DSE, opt.DCE,
			opt.SimplifyCFG, opt.GlobalDCE,
		}
		c.iters = 1

	case Os:
		o.InlineBudget = b.InlineBudget / 2
		o.UnrollMaxTrip = 0
		o.WidenPointerLoopStores = false
		o.AggressiveUnswitch = false
		o.KeepSRAClones = false
		c.schedule = midSchedule(b)
		c.iters = 2

	case O2:
		o.InlineBudget = b.InlineBudget
		o.UnrollMaxTrip = 0
		o.WidenPointerLoopStores = false
		o.AggressiveUnswitch = false
		o.KeepSRAClones = false
		c.schedule = midSchedule(b)
		c.iters = 2

	case O3:
		o.InlineBudget = b.InlineBudget * 2
		o.UnrollMaxTrip = b.UnrollTrips
		o.WidenPointerLoopStores = b.WidenAtO3
		o.AggressiveUnswitch = b.UnswitchEarly
		o.KeepSRAClones = b.KeepSRAAtO3
		if b.AliasO3Conservative {
			o.Alias = opt.AliasConservative
		}
		c.schedule = midSchedule(b)
		if b.WidenAtO3 {
			// The widening runs before GVN would forward the stores,
			// mirroring the vectorizer's position in GCC's -O3 pipeline.
			c.schedule = append([]opt.Pass{opt.Mem2Reg, opt.WidenStores}, c.schedule...)
		}
		if b.UnswitchAtO3 && b.UnswitchEarly {
			// Regressed placement (paper Listings 7/8a): non-trivial
			// unswitching runs in the early loop pipeline, before the
			// interprocedural constant propagation that would have folded
			// the condition; the freeze it inserts blocks folding forever.
			c.schedule = append([]opt.Pass{opt.Mem2Reg, opt.LICM, opt.Unswitch}, c.schedule...)
		}
		c.schedule = append(c.schedule, opt.Unroll, opt.SCCP, opt.InstCombine, opt.SimplifyCFG, opt.GVN, opt.DCE, opt.SimplifyCFG)
		if b.UnswitchAtO3 && !b.UnswitchEarly {
			// Healthy placement: unswitch after the main simplification,
			// with a cleanup round behind it.
			c.schedule = append(c.schedule, opt.Unswitch, opt.Mem2Reg, opt.SCCP, opt.InstCombine, opt.SimplifyCFG, opt.DCE)
		}
		c.schedule = append(c.schedule, opt.GlobalDCE)
		c.iters = 2
	}

	// Every optimizing level opens with the early compaction pass: folding
	// frontend debris and dropping orphan blocks up front shrinks the IR
	// every later pass iterates over. -O0 deliberately omits it — its tiny
	// schedule is the paper's "no optimization" baseline.
	if lvl != O0 {
		c.schedule = append([]opt.Pass{opt.Compact}, c.schedule...)
	}

	c.opts = o
	return c
}

// midSchedule is the shared -Os/-O2/-O3 core schedule.
func midSchedule(b Build) []opt.Pass {
	s := []opt.Pass{
		opt.Mem2Reg, opt.IPSCCP, opt.SCCP, opt.InstCombine, opt.SimplifyCFG,
		opt.Inline, opt.LocalizeGlobals, opt.Mem2Reg, opt.SCCP, opt.InstCombine, opt.SimplifyCFG,
	}
	if b.JumpThreadAtO2 {
		s = append(s, opt.JumpThread)
	}
	s = append(s,
		opt.VRP, opt.LICM, opt.GVN, opt.DSE, opt.DCE, opt.SimplifyCFG, opt.GlobalDCE,
	)
	return s
}
