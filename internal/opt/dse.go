package opt

import (
	"dcelens/internal/ir"
)

// DSE is block-local dead store elimination: a store is deleted when a
// later store certainly overwrites the same location before anything can
// read it. Reads include loads that may alias, calls to internal functions
// (no mod/ref summaries), calls to external functions for escaping
// storage, and the end of the block (the store may be observed later, e.g.
// by the whole-program checksum, so stores live at block exit are kept).
var DSE = Pass{Name: "dse", Pre: ComputeEscapesOpt, Fn: dseFunc, Reads: func(o Options) Options {
	return Options{Alias: o.Alias, PessimisticEscape: o.PessimisticEscape}
}}

func dseFunc(f *ir.Func, o Options) bool {
	ac := NewAliasCtx(f, o.Alias)
	changed := false
	for _, b := range f.Blocks {
		if dseBlock(b, ac) {
			changed = true
		}
	}
	return changed
}

func dseBlock(b *ir.Block, ac *AliasCtx) bool {
	type pending struct {
		loc   Loc
		store *ir.Instr
	}
	var pend []pending
	dead := map[*ir.Instr]bool{}
	drop := func(filter func(Loc) bool) {
		kept := pend[:0]
		for _, p := range pend {
			if !filter(p.loc) {
				kept = append(kept, p)
			}
		}
		pend = kept
	}
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpStore:
			loc := ResolveLoc(in.Args[0])
			for i, p := range pend {
				if MustAlias(p.loc, loc) {
					dead[p.store] = true
					pend = append(pend[:i], pend[i+1:]...)
					break
				}
			}
			// A store whose location may alias another pending location
			// does not kill it (it might write elsewhere), but the pending
			// store can no longer be proven dead by a later overwrite of
			// the *other* location — keeping both is sound because we only
			// delete on MustAlias.
			pend = append(pend, pending{loc, in})
		case ir.OpLoad:
			loc := ResolveLoc(in.Args[0])
			drop(func(l Loc) bool { return ac.MayAlias(l, loc) })
		case ir.OpCall:
			if in.Callee != nil && in.Callee.External {
				drop(func(l Loc) bool {
					switch {
					case l.G != nil:
						return l.G.Escapes
					case l.A != nil:
						return ac.isExposed(l.A)
					default:
						return true
					}
				})
			} else {
				pend = pend[:0]
			}
		}
	}
	if len(dead) == 0 {
		return false
	}
	var keep []*ir.Instr
	for _, in := range b.Instrs {
		if !dead[in] {
			keep = append(keep, in)
		}
	}
	b.Instrs = keep
	return true
}
