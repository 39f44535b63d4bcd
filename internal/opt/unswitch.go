package opt

import (
	"dcelens/internal/ir"
)

// Unswitch hoists loop-invariant conditional branches out of loops by
// duplicating the loop: the preheader branches on the invariant condition
// into a "true" copy (where the in-loop branch becomes an unconditional
// jump to its true target) and a "false" copy (symmetrically).
//
// With AggressiveUnswitch (the regressed behaviour bisected in paper
// Listings 7/8a to LLVM's new loop unswitching), the hoisted condition is
// wrapped in a freeze instruction — as LLVM's non-trivial unswitching does
// to sanitize potentially-poisonous conditions — and frozen values are
// opaque to all later constant propagation. Whether the unswitcher runs
// before or after the folding passes is a scheduling decision
// (internal/pipeline), which is exactly where the paper's regression lived.
var Unswitch = Pass{Name: "unswitch", Fn: unswitchFunc, Reads: func(o Options) Options {
	return Options{AggressiveUnswitch: o.AggressiveUnswitch}
}}

func unswitchFunc(f *ir.Func, o Options) bool {
	// Unreachable leftovers can carry edges into loop bodies, which
	// would corrupt loop cloning; sweep them first. (Natural-loop
	// reasoning in this file assumes all blocks are reachable.) The sweep
	// is not a reported change, but the dirty tracking must see it.
	if removeUnreachable(f) {
		f.MarkMutated()
	}
	// One unswitch per function per pass invocation keeps growth tame;
	// the pipeline iterates.
	return unswitchOne(f, o)
}

func unswitchOne(f *ir.Func, o Options) bool {
	dt := ir.Dominators(f)
	loops := ir.NaturalLoops(f, dt)
	for _, l := range loops {
		// Find an invariant conditional branch in a non-header block.
		// Iterate f.Blocks (not the loop's block set) for determinism.
		var cbr *ir.Instr
		for _, b := range f.Blocks {
			if !l.Blocks[b] {
				continue
			}
			t := b.Term()
			if t == nil || t.Op != ir.OpCondBr {
				continue
			}
			cond := t.Args[0]
			if l.Blocks[cond.Block] {
				continue // condition computed in the loop: not invariant
			}
			if _, isC := isConst(cond); isC {
				continue // constant branches are SimplifyCFG's job
			}
			// Both targets must stay within the loop (otherwise this is a
			// guarded exit; keep those for simplicity).
			if !l.Blocks[t.Targets[0]] || !l.Blocks[t.Targets[1]] {
				continue
			}
			cbr = t
			break
		}
		if cbr == nil {
			continue
		}
		if loopSize(l) > 200 {
			continue
		}
		// All exit edges must target one block, so LCSSA construction is a
		// single phi per escaping value.
		var exitBlock *ir.Block
		multi := false
		for _, e := range l.Exits() {
			if exitBlock == nil {
				exitBlock = e[1]
			} else if exitBlock != e[1] {
				multi = true
			}
		}
		if multi || exitBlock == nil {
			continue
		}
		// Every predecessor of the exit block must be a loop block;
		// otherwise loop values used past the exit cannot be LCSSA-ified
		// with a single phi (the value on the non-loop path is undefined).
		onlyLoopPreds := true
		for _, p := range exitBlock.Preds {
			if !l.Blocks[p] {
				onlyLoopPreds = false
				break
			}
		}
		if !onlyLoopPreds {
			continue
		}
		doUnswitch(f, l, cbr, exitBlock, o)
		return true
	}
	return false
}

// buildLCSSA gives every loop-defined value that is used outside the loop a
// dedicated phi in the (unique) exit block and reroutes the outside uses
// through it. After this, duplicating the loop only requires extending the
// exit block's phis.
func buildLCSSA(f *ir.Func, l *ir.Loop, exit *ir.Block) {
	inLoop := func(b *ir.Block) bool { return l.Blocks[b] }
	reach := f.Reachable()
	var loopVals []*ir.Instr
	for _, b := range f.Blocks { // deterministic order
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			if in.Typ != nil {
				loopVals = append(loopVals, in)
			}
		}
	}
	for _, v := range loopVals {
		// Find outside uses (in reachable code: unreachable leftovers do
		// not constrain anything and may violate dominance trivially).
		hasOutside := false
		for _, b := range f.Blocks {
			if inLoop(b) || !reach[b.ID] {
				continue
			}
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if a != v {
						continue
					}
					if in.Op == ir.OpPhi && in.Block == exit && inLoop(in.PhiPreds[i]) {
						continue // already edge-correct
					}
					hasOutside = true
				}
			}
		}
		if !hasOutside {
			continue
		}
		phi := exit.NewInstr(ir.OpPhi, v.Typ)
		for _, p := range exit.Preds {
			if inLoop(p) {
				phi.Args = append(phi.Args, v)
				phi.PhiPreds = append(phi.PhiPreds, p)
			}
		}
		if len(phi.Args) != len(exit.Preds) {
			// The exit block merges loop and non-loop paths; the value
			// cannot be LCSSA-ified with a simple phi. Bail out by not
			// rewriting (callers skip such loops via exit-shape checks, so
			// this is defensive).
			continue
		}
		exit.Instrs = append([]*ir.Instr{phi}, exit.Instrs...)
		for _, b := range f.Blocks {
			if inLoop(b) || !reach[b.ID] {
				continue
			}
			for _, in := range b.Instrs {
				if in == phi {
					continue
				}
				for i, a := range in.Args {
					if a != v {
						continue
					}
					if in.Op == ir.OpPhi && in.Block == exit && inLoop(in.PhiPreds[i]) {
						continue
					}
					in.Args[i] = phi
				}
			}
		}
	}
}

func loopSize(l *ir.Loop) int {
	n := 0
	for b := range l.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func doUnswitch(f *ir.Func, l *ir.Loop, cbr *ir.Instr, exit *ir.Block, o Options) {
	pre := preheader(f, l)
	if pre == nil {
		return
	}
	buildLCSSA(f, l, exit)
	cond := cbr.Args[0]

	// Clone the loop: the clone is the "false" version.
	bm, vm := cloneRegion(f, l)

	// Original: branch always goes to the true target.
	trueTgt := cbr.Targets[0]
	falseTgt := cbr.Targets[1]
	ir.RemoveEdge(cbr.Block, falseTgt)
	cbr.Op = ir.OpBr
	cbr.Args = nil
	cbr.Targets = []*ir.Block{trueTgt}

	// Clone: branch always goes to the (cloned) false target.
	cc := vm[cbr]
	ccTrue := cc.Targets[0]
	ir.RemoveEdge(cc.Block, ccTrue)
	cc.Op = ir.OpBr
	cc.Args = nil
	cc.Targets = []*ir.Block{cc.Targets[1]}

	// Exit edges of the clone: cloned blocks branching out of the loop go
	// to the same exit blocks; their phis gain entries for the new preds
	// with the same (necessarily loop-external) values... except values
	// defined in the loop, which map through vm.
	for _, b := range f.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, s := range b.Succs() {
			if l.Blocks[s] {
				continue
			}
			nb := bm[b]
			for _, in := range s.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for j, pb := range in.PhiPreds {
					if pb == b {
						v := in.Args[j]
						if nv, ok := vm[v]; ok {
							v = nv
						}
						in.Args = append(in.Args, v)
						in.PhiPreds = append(in.PhiPreds, nb)
						break
					}
				}
			}
		}
	}

	// Branch condition the preheader will test. Aggressive mode freezes
	// it — LLVM's non-trivial unswitching inserts freeze to sanitize
	// potentially-poisonous conditions, and the frozen value is opaque to
	// all later constant propagation (the Listing 7/8a blockage).
	testCond := cond
	if o.AggressiveUnswitch {
		fr := pre.NewInstr(ir.OpFreeze, cond.Typ, cond)
		pre.InsertBefore(fr, pre.Term())
		testCond = fr
	}

	// Preheader now branches on the condition into one of the two copies.
	pt := pre.Term()
	pt.Op = ir.OpCondBr
	pt.Args = []*ir.Instr{testCond}
	pt.Targets = []*ir.Block{l.Header, bm[l.Header]}
	ir.AddEdge(pre, bm[l.Header])

	// The cloned header's phis already reference pre for their outside
	// entries (cloneRegion maps outside preds to themselves).
	f.RecomputePreds()
	removeUnreachable(f)
}

// cloneRegion duplicates the blocks of a loop within f, mapping internal
// edges and values; references to values and blocks outside the region are
// shared. Returns the block and value maps.
func cloneRegion(f *ir.Func, l *ir.Loop) (map[*ir.Block]*ir.Block, map[*ir.Instr]*ir.Instr) {
	bm := map[*ir.Block]*ir.Block{}
	vm := map[*ir.Instr]*ir.Instr{}
	// Deterministic iteration order: walk f.Blocks.
	var order []*ir.Block
	for _, b := range f.Blocks {
		if l.Blocks[b] {
			order = append(order, b)
		}
	}
	for _, b := range order {
		bm[b] = f.NewBlock()
	}
	for _, b := range order {
		nb := bm[b]
		for _, in := range b.Instrs {
			ni := nb.NewInstr(in.Op, in.Typ)
			ni.IntVal = in.IntVal
			ni.Global = in.Global
			ni.Callee = in.Callee
			ni.ParamIdx = in.ParamIdx
			ni.Count = in.Count
			ni.BinOp = in.BinOp
			ni.Widened = in.Widened
			ni.Args = append(ni.Args, in.Args...)
			for _, t := range in.Targets {
				if nt, ok := bm[t]; ok {
					ni.Targets = append(ni.Targets, nt)
				} else {
					ni.Targets = append(ni.Targets, t)
				}
			}
			for _, pp := range in.PhiPreds {
				if np, ok := bm[pp]; ok {
					ni.PhiPreds = append(ni.PhiPreds, np)
				} else {
					ni.PhiPreds = append(ni.PhiPreds, pp)
				}
			}
			vm[in] = ni
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	// Second pass: remap operand references to cloned values, and mirror
	// predecessor lists (outside preds stay shared; the caller rewires
	// them and finishes with RecomputePreds).
	for _, b := range order {
		nb := bm[b]
		for _, in := range nb.Instrs {
			for i, a := range in.Args {
				if na, ok := vm[a]; ok {
					in.Args[i] = na
				}
			}
		}
		for _, p := range b.Preds {
			if np, ok := bm[p]; ok {
				nb.Preds = append(nb.Preds, np)
			} else {
				nb.Preds = append(nb.Preds, p)
			}
		}
	}
	return bm, vm
}
