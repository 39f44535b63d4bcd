package opt

import (
	"fmt"
	"sync"

	"dcelens/internal/ir"
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
	sc := dcePool.Get().(*dceScratch)
	removed, changed := sc.sweep(f)
	sc.release()
	if !changed {
		return false
	}
	if o.RemarksOn() {
		o.applied(f, fmt.Sprintf("removed %d dead values", removed), "")
	}
	return true
}

// sweep deletes f's dead values, reporting how many of them its blocks
// held and whether it found any.
func (sc *dceScratch) sweep(f *ir.Func) (removed int, changed bool) {
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
		return 0, false
	}
	sc.dead = resize(sc.dead, n)
	dead := sc.dead
	for len(sc.work) > 0 {
		in := sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
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
			} else {
				removed++
			}
		}
		b.Instrs = keep
	}
	return removed, true
}

// dceScratch is dce's pooled per-run state (see scratch.go).
type dceScratch struct {
	uses []int32
	dead []bool
	work []*ir.Instr
}

var dcePool = sync.Pool{New: func() any { return new(dceScratch) }}

func (sc *dceScratch) release() {
	sc.work = clearAll(sc.work)
	dcePool.Put(sc)
}
