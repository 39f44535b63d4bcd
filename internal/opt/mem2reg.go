package opt

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/types"
)

// Mem2Reg promotes scalar stack slots to SSA registers: the classic
// SSA-construction pass (phi placement at dominance frontiers, then a
// rename walk over the dominator tree). Only allocas whose every use is a
// direct load or store qualify — arrays (accessed through GEP) and
// address-taken slots stay in memory.
//
// Almost everything the rest of the pipeline achieves depends on this pass:
// without promotion, SCCP and GVN see only opaque memory traffic. The
// ablation benchmark BenchmarkAblationNoMem2Reg quantifies exactly that.
var Mem2Reg = Pass{Name: "mem2reg", Fn: mem2regFunc}

func mem2regFunc(f *ir.Func, o Options) bool {
	var cands []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca || in.IntVal != 1 {
				continue
			}
			if promotable(f, in) {
				cands = append(cands, in)
			} else if o.RemarksOn() {
				o.missed(f, fmt.Sprintf("alloca v%d", in.ID), ReasonAddressTaken,
					"address used beyond direct loads and stores; slot stays in memory")
			}
		}
	}
	if len(cands) == 0 {
		return false
	}

	c := cfgPool.Get()
	dt := c.dominators(f)
	df := dt.Frontiers()

	// All promotions share one relocation batch: dropped loads resolve
	// through it on read, and a single Apply sweep rewrites the survivors.
	reloc := relocPool.Get()
	for _, a := range cands {
		promote(f, a, dt, df, reloc)
		o.applied()
	}
	reloc.Apply(f)
	putRelocator(reloc)
	putCFG(c)
	return true
}

// promotable reports whether every use of a is a direct load or a store
// *address* (not a stored value, argument, or address computation).
func promotable(f *ir.Func, a *ir.Instr) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				if arg != a {
					continue
				}
				switch {
				case in.Op == ir.OpLoad:
					// address operand; fine
				case in.Op == ir.OpStore && i == 0:
					// address operand; fine (storing the alloca's address
					// itself is i == 1 and disqualifies)
				default:
					return false
				}
			}
		}
	}
	return true
}

// promote rewrites all loads/stores of alloca a into SSA values. Load
// replacements are batched into reloc; the caller applies them once.
func promote(f *ir.Func, a *ir.Instr, dt *ir.DomTree, df [][]*ir.Block, reloc *ir.Relocator) {
	elem := a.Typ.Elem
	nb := f.NumBlocks()

	// Phi placement: iterated dominance frontier of the store blocks. All
	// per-block state is dense by Block.ID (mem2reg creates no blocks).
	phiAt := make([]*ir.Instr, nb)
	inWork := make([]bool, nb)
	var work []*ir.Block
	for _, b := range f.Blocks { // seed in block order: deterministic
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && in.Args[0] == a {
				if !inWork[b.ID] {
					inWork[b.ID] = true
					work = append(work, b)
				}
				break
			}
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fb := range df[b.ID] {
			if !dt.Reachable(fb) {
				continue
			}
			if phiAt[fb.ID] != nil {
				continue
			}
			phi := fb.NewInstr(ir.OpPhi, elem)
			fb.Instrs = append([]*ir.Instr{phi}, fb.Instrs...)
			phiAt[fb.ID] = phi
			if !inWork[fb.ID] {
				inWork[fb.ID] = true
				work = append(work, fb)
			}
		}
	}

	// Default value for reads before any store: zero / null, materialized
	// in the entry block.
	var zero *ir.Instr
	mkZero := func() *ir.Instr {
		if zero != nil {
			return zero
		}
		entry := f.Entry()
		if elem.Kind == types.Pointer {
			zero = entry.NewInstr(ir.OpNull, elem)
		} else {
			zero = entry.NewInstr(ir.OpConst, elem)
		}
		entry.Instrs = append([]*ir.Instr{zero}, entry.Instrs...)
		return zero
	}

	// Rename walk over the dominator tree.
	var walk func(b *ir.Block, cur *ir.Instr)
	walk = func(b *ir.Block, cur *ir.Instr) {
		if phi := phiAt[b.ID]; phi != nil {
			cur = phi
		}
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpLoad && in.Args[0] == a:
				v := cur
				if v == nil {
					v = mkZero()
				}
				reloc.Add(in, v)
				continue // drop the load
			case in.Op == ir.OpStore && in.Args[0] == a:
				// The stored value may itself be a load this batch already
				// dropped (e.g. of a previously promoted alloca).
				cur = reloc.Resolve(in.Args[1])
				continue // drop the store
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
		// Fill phi operands of successors.
		for _, s := range b.Succs() {
			phi := phiAt[s.ID]
			if phi == nil {
				continue
			}
			v := cur
			if v == nil {
				v = mkZero()
			}
			phi.Args = append(phi.Args, v)
			phi.Edges = append(phi.Edges, b)
		}
		for _, kid := range dt.Children(b) {
			walk(kid, cur)
		}
	}
	walk(f.Entry(), nil)

	// Unreachable blocks may still reference the alloca; replace those
	// accesses with the zero value so the alloca can be deleted.
	for _, b := range f.Blocks {
		if dt.Reachable(b) {
			continue
		}
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpLoad && in.Args[0] == a:
				reloc.Add(in, mkZero())
				continue
			case in.Op == ir.OpStore && in.Args[0] == a:
				continue
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
	}

	// The rename walk only visits reachable blocks, but a reachable block
	// can have unreachable predecessors (e.g. the orphan blocks lowering
	// creates after a return). Their phi entries are arbitrary; use zero.
	for _, b := range f.Blocks {
		phi := phiAt[b.ID]
		if phi == nil {
			continue
		}
		for _, p := range b.Preds {
			covered := 0
			for _, pp := range phi.Edges {
				if pp == p {
					covered++
				}
			}
			occurs := 0
			for _, q := range b.Preds {
				if q == p {
					occurs++
				}
			}
			for ; covered < occurs; covered++ {
				phi.Args = append(phi.Args, mkZero())
				phi.Edges = append(phi.Edges, p)
			}
		}
	}

	a.Remove()
}
