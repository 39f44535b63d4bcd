package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/sema"
)

// Compact is the early normalization pass: one linear walk that folds
// trivially-constant instructions, collapses branches on constants, and
// drops unreachable blocks before the expensive passes ever see them.
//
// Lowered MiniC is full of frontend-shaped debris — constant arithmetic from
// desugaring, casts of literals, selects on literal conditions, and the
// orphan blocks left behind by early returns. Every rule here is a strict
// subset of what InstCombine/SimplifyCFG later prove; running the cheap
// subset first shrinks the IR the whole schedule iterates over, which is
// where the win comes from. The pass is scheduled identically in both
// personalities, so the differential oracle is unaffected — but its early
// position does shift downstream precision slightly (see EXPERIMENTS.md,
// "Middle-end throughput").
//
// Constant folds mutate the instruction in place into an OpConst (same
// *Instr, same ID): no allocation, and no relocation for the common case.
// Only dropped selects need use-rewriting, batched through a Relocator.
var Compact = Pass{Name: "compact", Fn: compactFunc}

func compactFunc(f *ir.Func, o Options) bool {
	changed := false
	reloc := relocPool.Get()
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !reloc.Empty() {
				for i, a := range in.Args {
					if n := reloc.Resolve(a); n != a {
						in.Args[i] = n
					}
				}
			}
			switch in.Op {
			case ir.OpBin:
				x, okx := isConst(in.Args[0])
				y, oky := isConst(in.Args[1])
				if okx && oky {
					if v, ok := sema.EvalBinop(in.BinOp, x, y, in.Args[0].Typ, in.Typ); ok {
						in.Op = ir.OpConst
						in.IntVal = in.Typ.WrapValue(v)
						in.Args = nil
						in.BinOp = 0
						changed = true
					}
				}
			case ir.OpCast:
				if v, ok := isConst(in.Args[0]); ok {
					in.Op = ir.OpConst
					in.IntVal = in.Typ.WrapValue(v)
					in.Args = nil
					changed = true
				}
			case ir.OpSelect:
				cond := in.Args[0]
				if v, ok := isConst(cond); ok || cond.Op == ir.OpNull {
					rep := in.Args[2]
					if v != 0 {
						rep = in.Args[1]
					}
					reloc.Add(in, rep)
					changed = true
					continue // drop the select
				}
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
	}
	reloc.Apply(f)
	putRelocator(reloc)
	for _, b := range f.Blocks {
		if foldConstBranch(b) {
			changed = true
		}
	}
	c := cfgPool.Get()
	if removeUnreachable(f, c) {
		changed = true
	}
	putCFG(c)
	if changed {
		// One count per changed visit, not per fold.
		o.applied()
	}
	return changed
}
