// Package remark is the collection side of the optimization-remarks
// subsystem: internal/opt's passes emit typed remarks (missed-with-reason
// / analysis) through the opt.RemarkSink seam and count the
// transformations they applied, which the pipeline reports per pass
// instance (opt.PassStats.Applied). The Collector here gathers both over
// one compilation, deduplicates fixpoint re-emissions, and reduces them to
// a Profile — per-pass counters, miss reasons, and the per-marker
// **nearest-miss chain**: the ordered list of (pass, reason) decisions
// that kept a surviving marker's code alive.
//
// The chain is what turns a campaign finding from "marker survived" into
// "marker survived because licm refused to hoist: alias-unknown at the
// store of g" — the root-causing substrate dce-explain renders and the
// future oracles consume. Chains are recorded in IR emission order (the
// pipeline is deterministic per seed), so every artifact built from them
// is byte-identical across worker counts, shards, and resumes.
package remark

import (
	"sort"

	"dcelens/internal/ir"
	"dcelens/internal/opt"
)

// chainCap bounds a nearest-miss chain: the first decisions are the
// closest to the marker (dce's own side-effects verdict always leads),
// and past a handful the narrative stops adding signal.
const chainCap = 8

// Collector implements opt.Observer and opt.RemarkSink over one
// compilation. Attach it as core.Hooks.Remarks (or, on a bare pipeline
// run, as the observer itself); only the collector sees the remarks. It
// keeps every distinct remark, because chains are assembled from them,
// and only a per-pass tally of applied transformations, whose one reader
// is the profile's counts.
type Collector struct {
	isMarker func(string) bool
	module   *ir.Module
	remarks  []opt.Remark
	seen     map[opt.Remark]struct{}
	applied  map[string]int // by pass
}

// NewCollector returns an empty collector; isMarker classifies external
// callee names (instrument.IsMarker) for chain assembly.
func NewCollector(isMarker func(string) bool) *Collector {
	return &Collector{
		isMarker: isMarker,
		seen:     make(map[opt.Remark]struct{}, 64),
		applied:  make(map[string]int, 8),
		// A mid-sized compilation lands a few hundred remarks; pre-sizing
		// skips the doubling reallocations of a 112-byte element type.
		remarks: make([]opt.Remark, 0, 256),
	}
}

// BeginPipeline captures the module; the pipeline mutates it in place, so
// at Profile time it holds the final IR the chains are assembled against.
func (c *Collector) BeginPipeline(m *ir.Module) { c.module = m }

// AfterPass tallies the pass instance's applied transformations under its
// pass. A transformation consumes its input (the replaced value, the
// promoted alloca, the inlined call site), so it cannot re-fire, and no
// count needs deduplicating.
func (c *Collector) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st opt.PassStats) {
	if st.Applied > 0 {
		c.applied[pass] += st.Applied
	}
}

// Remark records one emission. Fixpoint iterations re-derive the same
// decisions; remarks identical up to their pipeline position collapse to
// the first occurrence, so a chain reads as a sequence of distinct
// decisions rather than one decision repeated per iteration.
func (c *Collector) Remark(r opt.Remark) {
	key := r
	key.ScheduleIndex, key.Iteration = 0, 0
	if _, dup := c.seen[key]; dup {
		return
	}
	c.seen[key] = struct{}{}
	c.remarks = append(c.remarks, r)
}

// Len reports how many distinct remarks were collected.
func (c *Collector) Len() int { return len(c.remarks) }

// Remarks returns the collected remarks in emission order.
func (c *Collector) Remarks() []opt.Remark { return c.remarks }

// ChainStep is one decision of a nearest-miss chain.
type ChainStep struct {
	Pass    string `json:"pass"`
	Reason  string `json:"reason"`
	Subject string `json:"subject"`
	Detail  string `json:"detail,omitempty"`
}

// PassCount aggregates one pass's remarks.
type PassCount struct {
	Pass     string `json:"pass"`
	Applied  int    `json:"applied,omitempty"`
	Missed   int    `json:"missed,omitempty"`
	Analysis int    `json:"analysis,omitempty"`
}

// Profile is the reduced form of one compilation's remarks.
type Profile struct {
	// Total counts the distinct remarks plus the applied transformations.
	Total int `json:"total"`
	// Passes holds per-pass applied/missed/analysis counts, sorted by
	// pass name.
	Passes []PassCount `json:"passes,omitempty"`
	// Reasons counts Missed remarks by reason code.
	Reasons map[string]int `json:"reasons,omitempty"`
	// Chains maps each surviving marker to its nearest-miss chain: the
	// Missed decisions recorded in the marker's enclosing function(s),
	// plus module-scoped ones, in pipeline order, capped at chainCap.
	Chains map[string][]ChainStep `json:"chains,omitempty"`
}

// Profile reduces the collected remarks. Call it after the compilation;
// the chains are assembled against the module's final IR (where the
// markers actually survived), so inlined marker copies are chained under
// the function they ended up in.
func (c *Collector) Profile() *Profile {
	p := &Profile{Total: len(c.remarks)}
	counts := map[string]*PassCount{}
	count := func(pass string) *PassCount {
		pc := counts[pass]
		if pc == nil {
			pc = &PassCount{Pass: pass}
			counts[pass] = pc
		}
		return pc
	}
	for pass, n := range c.applied {
		count(pass).Applied = n
		p.Total += n
	}
	for _, r := range c.remarks {
		pc := count(r.Pass)
		switch r.Kind {
		case opt.RemarkMissed:
			pc.Missed++
			if p.Reasons == nil {
				p.Reasons = map[string]int{}
			}
			p.Reasons[string(r.Reason)]++
		case opt.RemarkAnalysis:
			pc.Analysis++
		}
	}
	for _, pc := range counts {
		p.Passes = append(p.Passes, *pc)
	}
	sort.Slice(p.Passes, func(i, j int) bool { return p.Passes[i].Pass < p.Passes[j].Pass })

	if c.module == nil || c.isMarker == nil {
		return p
	}
	// Surviving markers and the defined functions that still call them.
	enclosing := map[string]map[string]bool{}
	for _, f := range c.module.Funcs {
		if f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || in.Callee == nil || !in.Callee.External || !c.isMarker(in.Callee.Name) {
					continue
				}
				fns := enclosing[in.Callee.Name]
				if fns == nil {
					fns = map[string]bool{}
					enclosing[in.Callee.Name] = fns
				}
				fns[f.Name] = true
			}
		}
	}
	if len(enclosing) == 0 {
		return p
	}
	p.Chains = make(map[string][]ChainStep, len(enclosing))
	for marker, fns := range enclosing {
		var chain []ChainStep
		for _, r := range c.remarks {
			if r.Kind != opt.RemarkMissed {
				continue
			}
			if r.Fn != "" && !fns[r.Fn] {
				continue
			}
			chain = append(chain, ChainStep{
				Pass:    r.Pass,
				Reason:  string(r.Reason),
				Subject: r.Subject,
				Detail:  r.Detail,
			})
			if len(chain) == chainCap {
				break
			}
		}
		p.Chains[marker] = chain
	}
	return p
}

// Chain returns the profile's chain for one marker (nil when absent).
func (p *Profile) Chain(marker string) []ChainStep {
	if p == nil {
		return nil
	}
	return p.Chains[marker]
}
