package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/types"
)

// WidenStores models the GCC artifact of paper Listing 9e: when -O3
// vectorizes a loop that stores pointers, the stored data is re-typed as
// unsigned long, and the type mismatch later blocks constant folding and
// store-to-load forwarding. Here, stores of pointer-typed values inside
// loops are marked Widened; GVN refuses to forward widened stores, so a
// later load of the location stays a load — and everything downstream of
// it (including DCE of blocks guarded by comparisons on the loaded value)
// is lost.
//
// The transformation itself is semantics-preserving: only the forwarding
// metadata changes.
var WidenStores = Pass{Name: "widen-stores", Fn: widenStoresFunc, Reads: func(o Options) Options {
	return Options{WidenPointerLoopStores: o.WidenPointerLoopStores}
}}

func widenStoresFunc(f *ir.Func, o Options) bool {
	if !o.WidenPointerLoopStores {
		return false
	}
	c := cfgPool.Get()
	defer putCFG(c)
	changed := false
	for _, l := range c.loops(f) {
		for _, b := range f.Blocks {
			if !l.Contains(b) {
				continue
			}
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && !in.Widened &&
					in.Args[1].Typ != nil && in.Args[1].Typ.Kind == types.Pointer {
					in.Widened = true
					changed = true
				}
			}
		}
	}
	return changed
}
