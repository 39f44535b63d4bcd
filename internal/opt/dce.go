package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/pool"
)

// DCE removes instructions whose results are unused and that have no side
// effects (including loads — MiniC loads cannot trap at the IR level).
// This is the sink transformation of the whole reproduction: every other
// pass exists to make more code eligible for this one and for SimplifyCFG's
// unreachable-block removal.
var DCE = Pass{Name: "dce", Fn: dceFunc}

func dceFunc(f *ir.Func, o Options) bool {
	if o.RemarksOn() {
		// Every kept external call is a Missed(side-effects) decision:
		// opaque side effects pin it regardless of use counts. Markers are
		// external calls, so this is what anchors each surviving marker's
		// nearest-miss chain — the first dce visit of any function with a
		// surviving marker records why dce itself cannot touch it.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && in.Callee.External {
					o.missed(f, "call "+in.Callee.Name, ReasonSideEffects,
						"external call: opaque side effects keep it live")
				}
			}
		}
	}
	sc := dcePool.Get()
	changed := sc.sweep(f)
	dcePool.Put(sc)
	if changed {
		o.applied()
	}
	return changed
}

// sweep deletes f's dead values, reporting whether it found any. It
// leaves the worklist empty, each popped slot zeroed (see scratch.go).
func (sc *dceScratch) sweep(f *ir.Func) bool {
	// Use counts over the whole function, dense by instruction ID.
	n := f.NumValues()
	sc.uses = resize(sc.uses, n)
	uses := sc.uses
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				uses[a.ID]++
			}
		}
	}
	deletable := func(in *ir.Instr) bool {
		if in.HasSideEffects() {
			return false
		}
		if in.Op == ir.OpLoad || in.Op == ir.OpFreeze {
			return true // loads are pure in MiniC; freeze is a value copy
		}
		return in.IsPure()
	}

	// Worklist to cascade: removing an instruction may zero its operands'
	// use counts.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if uses[in.ID] == 0 && in.Typ != nil && deletable(in) {
				sc.work = append(sc.work, in)
			}
		}
	}
	if len(sc.work) == 0 {
		return false
	}
	sc.dead = resize(sc.dead, n)
	dead := sc.dead
	for len(sc.work) > 0 {
		in := pop(&sc.work)
		if dead[in.ID] {
			continue
		}
		dead[in.ID] = true
		for _, a := range in.Args {
			uses[a.ID]--
			if uses[a.ID] == 0 && a.Typ != nil && deletable(a) {
				sc.work = append(sc.work, a)
			}
		}
	}
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !dead[in.ID] {
				keep = append(keep, in)
			}
		}
		b.Instrs = keep
	}
	return true
}

// dceScratch is dce's pooled per-run state (see scratch.go).
type dceScratch struct {
	uses []int32
	dead []bool
	work []*ir.Instr
}

var dcePool = pool.Pool[dceScratch]{New: func() *dceScratch { return new(dceScratch) }}
