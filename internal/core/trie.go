package core

import (
	"fmt"
	"time"

	"dcelens/internal/asm"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/trace"
)

// Trie is one program's compiles under several configurations, run as a
// trie over their first schedule iteration. The program is lowered once,
// and each pass instance runs once for every configuration whose pass and
// projected options (opt.Pass.Key) agree at that position of the schedule.
// Where schedules fork, the module and the pass manager's state are
// cloned, one copy per branch but the last, which keeps the original.
// A configuration leaves the trie where its key differs from every other
// member's, or alone when its first iteration ends, so later iterations
// are never shared.
//
// Shared work calls no consumer. It records what each configuration's
// consumers would have seen (see Paused), and each configuration's compile
// replays that record into its own Hooks before it continues, so that no
// consumer can tell a shared compile from one that ran alone.
type Trie struct {
	// Paused holds each configuration's compile, paused where it stopped
	// sharing; nil where the configuration was nil.
	Paused []*Paused

	// Shared counts the pass instances run once for two or more
	// configurations, and Clones the module copies made where schedules
	// forked.
	Shared, Clones int
}

// Paused is one configuration's compile, paused after the work it shares
// with the program's other configurations. Compile continues it, once.
type Paused struct {
	cfg   *pipeline.Config
	ins   *instrument.Program
	lower *Lowering
	run   *opt.Run

	// traced and remarks say what the shared work recorded: scans holds
	// the trace's scan of the lowered module and of the module after each
	// shared instance that trace.Rescans, and the run's log the remarks
	// each instance emitted.
	traced, remarks bool
	scans           []*trace.Scan
}

// Lowering is a program lowered without optimization, with the extent of
// the lowering. A seed lowers its program once: the marker graph is
// derived from the module (MarkerCFGOf), the seed's trie starts from it,
// and every compile that continues from the trie reports the extent as
// its "lower" phase.
type Lowering struct {
	m     *ir.Module
	start time.Time
	d     time.Duration
	err   error
}

// Lower lowers ins and times the lowering.
func Lower(ins *instrument.Program) (*Lowering, error) {
	lw := lowerTimed(ins)
	if lw.err != nil {
		return nil, lw.err
	}
	return lw, nil
}

func lowerTimed(ins *instrument.Program) *Lowering {
	start := time.Now()
	m, err := lower.Lower(ins.Prog)
	return &Lowering{m: m, start: start, d: time.Since(start), err: err}
}

// Module returns the lowered module.
func (lw *Lowering) Module() *ir.Module { return lw.m }

// NewTrie compiles ins under cfgs as a trie, as far as they share work,
// starting from lw, the lowering of ins, whose module the trie takes over.
// A nil configuration takes no part. traced and remarks say whether the
// compiles that continue from the trie attach a trace and a remark
// collector: the shared work then records the trace's scans and the
// passes' remarks for them.
//
// When any shared pass instance fails or panics, NewTrie returns an error
// and no trie. Each configuration should then compile alone (Compile),
// so that its failure, if any, is its own.
func NewTrie(ins *instrument.Program, lw *Lowering, cfgs []*pipeline.Config, traced, remarks bool) (t *Trie, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("core: shared compile panicked: %v", r)
		}
	}()
	t = newTrie(ins, lw, cfgs, traced, remarks)
	m := lw.m
	var members []int
	for i, p := range t.Paused {
		if p != nil {
			members = append(members, i)
		}
	}
	if len(members) == 0 {
		return t, nil
	}
	var scans []*trace.Scan
	if traced && len(members) > 1 {
		scans = []*trace.Scan{trace.ScanModule(m, instrument.IsMarker)}
	}
	r := t.Paused[members[0]].cfg.Start(m)
	if err := t.grow(r, 0, members, scans); err != nil {
		return nil, err
	}
	return t, nil
}

// newTrie pauses every configuration over lw's module, each before its
// first pass, which is all a trie of one configuration does.
func newTrie(ins *instrument.Program, lw *Lowering, cfgs []*pipeline.Config, traced, remarks bool) *Trie {
	t := &Trie{Paused: make([]*Paused, len(cfgs))}
	for i, cfg := range cfgs {
		if cfg == nil {
			continue
		}
		p := &Paused{cfg: cfg, ins: ins, lower: lw, traced: traced, remarks: remarks}
		if lw.err == nil && len(cfgs) == 1 {
			p.run = cfg.Start(lw.m)
		}
		t.Paused[i] = p
	}
	return t
}

// grow runs the instances that members (two or more) share on r, which is
// at schedule position pos of their first iteration, then forks r where
// their schedules diverge. scans holds the trace's scans so far.
func (t *Trie) grow(r *opt.Run, pos int, members []int, scans []*trace.Scan) error {
	traced, remarks := t.Paused[members[0]].traced, t.Paused[members[0]].remarks
	for {
		groups := t.group(pos, members)
		if len(groups) > 1 || len(groups[0]) == 1 {
			return t.fork(r, pos, groups, scans)
		}
		if err := r.Step(remarks); err != nil {
			return err
		}
		t.Shared++
		pos++
		if log := r.Log(); traced && trace.Rescans(log[len(log)-1].Stats) {
			scans = append(scans, trace.ScanModule(r.Module(), instrument.IsMarker))
		}
	}
}

// group partitions members by their pass key at position pos, in member
// order. A configuration whose first iteration ends there is alone.
func (t *Trie) group(pos int, members []int) [][]int {
	var keys []opt.Key
	var groups [][]int
	for _, i := range members {
		cfg := t.Paused[i].cfg
		passes := cfg.Passes()
		if pos >= len(passes) {
			groups = append(groups, []int{i})
			keys = append(keys, opt.Key{})
			continue
		}
		k := passes[pos].Key(cfg.Options())
		g := -1
		for j := range groups {
			if keys[j] == k && keys[j].Pass != "" {
				g = j
				break
			}
		}
		if g < 0 {
			groups = append(groups, nil)
			keys = append(keys, k)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// fork gives each group its own copy of r, retargeted to the group's first
// configuration; the last group takes r itself. A group of one is paused
// there, a larger one grows on.
func (t *Trie) fork(r *opt.Run, pos int, groups [][]int, scans []*trace.Scan) error {
	for n, g := range groups {
		branch := r
		if n < len(groups)-1 {
			branch = r.Clone()
			t.Clones++
		}
		t.Paused[g[0]].cfg.Retarget(branch)
		scans := scans[:len(scans):len(scans)]
		if len(g) == 1 {
			p := t.Paused[g[0]]
			p.run, p.scans = branch, scans
			continue
		}
		if err := t.grow(branch, pos, g, scans); err != nil {
			return err
		}
	}
	return nil
}

// Compile continues the configuration's compile to the end under h, with
// the outcome Compile would have had: h's consumers first see what the
// shared work recorded for them, then the rest of the pipeline.
func (p *Paused) Compile(h Hooks) (*Compilation, error) {
	if p.run != nil && len(p.run.Log()) > 0 && (h.Trace != nil && !p.traced || h.Remarks != nil && !p.remarks) {
		// The shared work recorded nothing for a consumer h attaches.
		return Compile(p.ins, p.cfg, h)
	}
	rec := h.Recorder
	if rec != nil {
		rec.Phase("lower", p.lower.start, p.lower.d, false)
	}
	if p.lower.err != nil {
		return nil, p.lower.err
	}
	if h.Trace != nil {
		h.Trace.Replay(p.scans)
	}
	r := p.run
	p.run = nil
	if err := optimize(p.cfg, r, &h); err != nil {
		return nil, err
	}
	m := r.Module()
	start := clock(rec)
	text := asm.Emit(m)
	alive := map[string]bool{}
	for _, name := range asm.SurvivingMarkers(text, instrument.IsMarker) {
		alive[name] = true
	}
	phase(rec, "codegen", start)
	if h.Trace != nil {
		// The IR-level scan and the assembly oracle must agree, or the
		// provenance would attribute eliminations the oracle never sees
		// (or miss ones it does).
		final := h.Trace.Profile().FinalSurviving
		if len(final) != len(alive) {
			return nil, fmt.Errorf("core: %s: trace/asm marker disagreement: %d surviving in IR, %d in assembly",
				p.cfg.Name(), len(final), len(alive))
		}
		for _, name := range final {
			if !alive[name] {
				return nil, fmt.Errorf("core: %s: trace/asm marker disagreement: %s survives in IR but not in assembly",
					p.cfg.Name(), name)
			}
		}
	}
	return &Compilation{Config: p.cfg, Module: m, Asm: text, Alive: alive}, nil
}

// Analyze continues the compile (Compile) and analyzes it as the function
// Analyze does.
func (p *Paused) Analyze(t *Truth, g *MarkerCFG, h Hooks) (*Analysis, error) {
	comp, err := p.Compile(h)
	if err != nil {
		return nil, err
	}
	return analyze(comp, t, g, h), nil
}
