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
	c := cfgPool.Get()
	defer putCFG(c)
	if removeUnreachable(f, c) {
		f.MarkMutated()
	}
	// One unswitch per function per pass invocation keeps growth tame;
	// the pipeline iterates.
	return unswitchOne(f, o, c)
}

func unswitchOne(f *ir.Func, o Options, c *cfgScratch) bool {
	for _, l := range c.loops(f) {
		// Find an invariant conditional branch in a non-header block.
		// Iterate f.Blocks (not the loop's block set) for determinism.
		var cbr *ir.Instr
		for _, b := range f.Blocks {
			if !l.Contains(b) {
				continue
			}
			t := b.Term()
			if t == nil || t.Op != ir.OpCondBr {
				continue
			}
			cond := t.Args[0]
			if l.Contains(cond.Block) {
				continue // condition computed in the loop: not invariant
			}
			if _, isC := isConst(cond); isC {
				continue // constant branches are SimplifyCFG's job
			}
			// Both targets must stay within the loop (otherwise this is a
			// guarded exit; keep those for simplicity).
			if !l.Contains(t.Edges[0]) || !l.Contains(t.Edges[1]) {
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
			if !l.Contains(p) {
				onlyLoopPreds = false
				break
			}
		}
		if !onlyLoopPreds {
			continue
		}
		doUnswitch(f, l, cbr, exitBlock, o, c)
		return true
	}
	return false
}

// buildLCSSA gives every loop-defined value that is used outside the loop a
// dedicated phi in the (unique) exit block and reroutes the outside uses
// through it. After this, duplicating the loop only requires extending the
// exit block's phis. It computes reachability in c's table.
func buildLCSSA(f *ir.Func, l *ir.Loop, exit *ir.Block, c *cfgScratch) {
	c.reach = f.ReachableInto(c.reach)
	reach := c.reach
	var loopVals []*ir.Instr
	for _, b := range f.Blocks { // deterministic order
		if !l.Contains(b) {
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
			if l.Contains(b) || !reach[b.ID] {
				continue
			}
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if a != v {
						continue
					}
					if in.Op == ir.OpPhi && in.Block == exit && l.Contains(in.Edges[i]) {
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
			if l.Contains(p) {
				phi.Args = append(phi.Args, v)
				phi.Edges = append(phi.Edges, p)
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
			if l.Contains(b) || !reach[b.ID] {
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
					if in.Op == ir.OpPhi && in.Block == exit && l.Contains(in.Edges[i]) {
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
	for _, b := range l.Header.Func.Blocks {
		if l.Contains(b) {
			n += len(b.Instrs)
		}
	}
	return n
}

func doUnswitch(f *ir.Func, l *ir.Loop, cbr *ir.Instr, exit *ir.Block, o Options, c *cfgScratch) {
	pre := preheader(f, l)
	if pre == nil {
		return
	}
	buildLCSSA(f, l, exit, c)
	cond := cbr.Args[0]

	// Clone the loop: the clone is the "false" version.
	cm := clonePool.Get()
	defer putCloneMap(cm)
	cloneRegion(f, l, cm)

	// Original: branch always goes to the true target.
	trueTgt := cbr.Edges[0]
	falseTgt := cbr.Edges[1]
	ir.RemoveEdge(cbr.Block, falseTgt)
	cbr.Op = ir.OpBr
	cbr.Args = nil
	cbr.Edges = []*ir.Block{trueTgt}

	// Clone: branch always goes to the (cloned) false target.
	cc, _ := cm.val(cbr)
	ccTrue := cc.Edges[0]
	ir.RemoveEdge(cc.Block, ccTrue)
	cc.Op = ir.OpBr
	cc.Args = nil
	cc.Edges = []*ir.Block{cc.Edges[1]}

	// Exit edges of the clone: cloned blocks branching out of the loop go
	// to the same exit blocks; their phis gain entries for the new preds
	// with the same (necessarily loop-external) values... except values
	// defined in the loop, which map through vm.
	for _, b := range f.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, s := range b.Succs() {
			if l.Contains(s) {
				continue
			}
			nb, _ := cm.block(b)
			for _, in := range s.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for j, pb := range in.Edges {
					if pb == b {
						v := in.Args[j]
						if nv, ok := cm.val(v); ok {
							v = nv
						}
						in.Args = append(in.Args, v)
						in.Edges = append(in.Edges, nb)
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
	ch, _ := cm.block(l.Header)
	pt.Edges = []*ir.Block{l.Header, ch}
	ir.AddEdge(pre, ch)

	// The cloned header's phis already reference pre for their outside
	// entries (cloneRegion maps outside preds to themselves).
	f.RecomputePreds()
	removeUnreachable(f, c)
}

// cloneRegion duplicates the blocks of a loop within f, mapping internal
// edges and values; references to values and blocks outside the region are
// shared. It maps each loop block and value to its copy in m.
func cloneRegion(f *ir.Func, l *ir.Loop, m *cloneMap) {
	m.reset(f.NumBlocks(), f.NumValues())
	// Deterministic iteration order: walk f.Blocks.
	var order []*ir.Block
	for _, b := range f.Blocks {
		if l.Contains(b) {
			order = append(order, b)
		}
	}
	for _, b := range order {
		m.setBlock(b, f.NewBlock())
	}
	mapBlock := func(b *ir.Block) *ir.Block {
		if nb, ok := m.block(b); ok {
			return nb
		}
		return b
	}
	for _, b := range order {
		nb := mapBlock(b)
		for _, in := range b.Instrs {
			ni := nb.NewInstr(in.Op, in.Typ)
			ni.IntVal = in.IntVal
			ni.Global = in.Global
			ni.Callee = in.Callee
			ni.BinOp = in.BinOp
			ni.Widened = in.Widened
			ni.Args = append(ni.Args, in.Args...)
			for _, t := range in.Edges {
				ni.Edges = append(ni.Edges, mapBlock(t))
			}
			m.setVal(in, ni)
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	// Second pass: remap operand references to cloned values, and mirror
	// predecessor lists (outside preds stay shared; the caller rewires
	// them and finishes with RecomputePreds).
	for _, b := range order {
		nb := mapBlock(b)
		for _, in := range nb.Instrs {
			for i, a := range in.Args {
				if na, ok := m.val(a); ok {
					in.Args[i] = na
				}
			}
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, mapBlock(p))
		}
	}
}
