package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/types"
)

// LocalizeGlobals models LLVM GlobalOpt's "localize global" transform: a
// non-escaping internal scalar global whose every access sits in main (a
// function that runs exactly once) is demoted to a stack slot — which
// mem2reg then promotes to SSA, making every condition over it fully
// flow-sensitive. After aggressive inlining this applies to a large share
// of a Csmith-style program's globals, and it is the single biggest reason
// llvm-sim eliminates far more of gcc-sim's missed markers than the other
// way around (paper §4.2: 39,723 vs 3,781). GCC has no equivalent
// localization, so the personality knob GlobalLocalize is LLVM-only.
//
// Because this reproduction's observation model reads every global after
// exit (the Csmith-style checksum), the transform writes the slot's final
// value back to the global before every return of main — exactly the
// compromise a real compiler faces when the global's final value is
// observable.
var LocalizeGlobals = Pass{Name: "localize-globals", Run: localizeGlobals, Reads: func(o Options) Options {
	return Options{GlobalLocalize: o.GlobalLocalize, PessimisticEscape: o.PessimisticEscape}
}}

func localizeGlobals(m *ir.Module, o Options, inv *Invalidation) bool {
	if !o.GlobalLocalize {
		return false
	}
	mainFn := m.LookupFunc("main")
	if mainFn == nil || mainFn.External || mainIsCalled(m) {
		return false
	}
	if ComputeEscapesOpt(m, o) {
		inv.Facts()
	}
	changed := false
	for _, g := range m.Globals {
		if g.Escapes || g.AddrExposed || g.Len != 1 {
			continue
		}
		if localizeOne(m, g, mainFn) {
			changed = true
			inv.Func(mainFn) // demotion rewrites only main's body
		}
	}
	return changed
}

// localizeMinAccesses is the profitability threshold: demoting a global
// costs an entry store plus an exit write-back, so rarely-accessed globals
// are not worth rewriting. This cost model is also what keeps the paper's
// tiny reduced listings (one load, one store — Listings 4a/6) exhibiting
// their misses: real GlobalOpt does not rescue them either.
const localizeMinAccesses = 4

// localizeOne demotes one global; returns false when its uses are not
// confined to main or the access count is below the profitability
// threshold.
func localizeOne(m *ir.Module, g *ir.Global, mainFn *ir.Func) bool {
	var addrs []*ir.Instr
	accesses := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpGlobalAddr && in.Global == g {
					if f != mainFn {
						return false
					}
					addrs = append(addrs, in)
				}
				for i, a := range in.Args {
					if a.Op == ir.OpGlobalAddr && a.Global == g {
						if in.Op == ir.OpLoad || (in.Op == ir.OpStore && i == 0) {
							accesses++
						}
					}
				}
			}
		}
	}
	if len(addrs) == 0 || accesses < localizeMinAccesses {
		return false
	}

	entry := mainFn.Entry()

	// The stack slot, its initialization, and the address substitution.
	slot := entry.NewInstr(ir.OpAlloca, types.PointerTo(g.Elem))
	slot.IntVal = 1
	initVal := materializeInit(m, entry, g)
	st := entry.NewInstr(ir.OpStore, nil, slot, initVal)
	// Prepend in order: alloca, init value chain, store.
	prefix := []*ir.Instr{slot}
	prefix = append(prefix, initChain(initVal)...)
	prefix = append(prefix, st)
	entry.Instrs = append(prefix, entry.Instrs...)

	for _, a := range addrs {
		ir.ReplaceAllUses(a, slot)
		a.Remove()
	}

	// Write the final value back before every return, so the global's
	// observable exit state is preserved.
	for _, b := range mainFn.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		ga := b.NewInstr(ir.OpGlobalAddr, types.PointerTo(g.Elem))
		ga.Global = g
		ld := b.NewInstr(ir.OpLoad, g.Elem, slot)
		wb := b.NewInstr(ir.OpStore, nil, ga, ld)
		b.InsertBefore(ga, t)
		b.InsertBefore(ld, t)
		b.InsertBefore(wb, t)
	}
	return true
}

// materializeInit builds the instruction(s) producing g's initial value;
// the returned value's dependency chain is collected by initChain.
func materializeInit(m *ir.Module, entry *ir.Block, g *ir.Global) *ir.Instr {
	var c ir.Const
	if len(g.Init) > 0 {
		c = g.Init[0]
	}
	switch {
	case c.IsAddr && c.Global == nil:
		n := entry.NewInstr(ir.OpNull, g.Elem)
		return n
	case c.IsAddr:
		ga := entry.NewInstr(ir.OpGlobalAddr, types.PointerTo(c.Global.Elem))
		ga.Global = c.Global
		if c.Off == 0 {
			return ga
		}
		idx := entry.NewInstr(ir.OpConst, types.I64Type)
		idx.IntVal = c.Off
		gep := entry.NewInstr(ir.OpGEP, ga.Typ, ga, idx)
		return gep
	case g.Elem.Kind == types.Pointer:
		return entry.NewInstr(ir.OpNull, g.Elem)
	default:
		cv := entry.NewInstr(ir.OpConst, g.Elem)
		cv.IntVal = g.Elem.WrapValue(c.Int)
		return cv
	}
}

// initChain returns the dependency chain of a materialized init value in
// definition order (operands first).
func initChain(v *ir.Instr) []*ir.Instr {
	var out []*ir.Instr
	var walk func(in *ir.Instr)
	seen := map[*ir.Instr]bool{}
	walk = func(in *ir.Instr) {
		if seen[in] {
			return
		}
		seen[in] = true
		for _, a := range in.Args {
			walk(a)
		}
		out = append(out, in)
	}
	walk(v)
	return out
}
