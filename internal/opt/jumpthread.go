package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/sema"
)

// JumpThread forwards predecessors across blocks whose branch outcome is
// already decided on that incoming edge: the classic case is a block
// containing only a phi (and optionally a comparison of that phi against a
// constant) followed by a conditional branch. Each predecessor contributing
// a constant is redirected straight to the branch target it implies.
//
// The paper's Listing 9d bisects a GCC missed optimization to jump
// threaders "threading through dead code" and leaving IR that confused VRP;
// in this reproduction that corresponds to scheduling this pass after the
// final cleanup round (see internal/pipeline).
var JumpThread = Pass{Name: "jumpthread", Fn: jumpThreadFunc}

func jumpThreadFunc(f *ir.Func, o Options) bool {
	c := cfgPool.Get()
	changed := false
	for jumpThreadOnce(f, c) {
		changed = true
	}
	putCFG(c)
	return changed
}

func jumpThreadOnce(f *ir.Func, c *cfgScratch) bool {
	var dt *ir.DomTree // computed lazily; valid until the first rewrite
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Preds) < 2 {
			continue
		}
		phi, cmp, term, ok := threadableShape(b)
		if !ok {
			continue
		}
		// Find a predecessor whose incoming value decides the branch.
		for i, p := range b.Preds {
			v, isC := isConst(phi.Args[phiIndexFor(phi, p, i)])
			if !isC {
				continue
			}
			cond := v
			if cmp != nil {
				cc, okc := isConst(cmp.Args[1])
				if !okc {
					continue
				}
				// Evaluate in the phi's type: signedness matters.
				r, okE := sema.EvalBinop(cmp.BinOp, v, cc, phi.Typ, cmp.Typ)
				if !okE {
					continue
				}
				cond = r
			}
			target := term.Edges[1]
			if cond != 0 {
				target = term.Edges[0]
			}
			// The target must tolerate the new edge: each phi's value for
			// pred b must dominate the new pred p (being defined outside b
			// is necessary but not sufficient).
			if dt == nil {
				dt = c.dominators(f)
			}
			if !phisSafeToRetarget(b, target, p, dt) {
				continue
			}
			// Retarget p: p -> target instead of p -> b. Target phis gain
			// p with the value they had for b (defined outside b, checked).
			for _, in := range target.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for j, pb := range in.Edges {
					if pb == b {
						in.Args = append(in.Args, in.Args[j])
						in.Edges = append(in.Edges, p)
						break
					}
				}
			}
			ir.RedirectEdge(p, b, target)
			return true
		}
	}
	return false
}

// threadableShape matches blocks of the form:
//
//	phi; [consts...;] condbr phi, T, F
//	phi; [consts...;] cmp = bin(phi, const); condbr cmp, T, F
//
// with no other instructions (so duplicating the block per edge is
// unnecessary — retargeting suffices). Constants may be materialized in the
// block; they are position-independent.
func threadableShape(b *ir.Block) (phi, cmp, term *ir.Instr, ok bool) {
	n := len(b.Instrs)
	if n < 2 {
		return nil, nil, nil, false
	}
	term = b.Instrs[n-1]
	if term.Op != ir.OpCondBr {
		return nil, nil, nil, false
	}
	phi = b.Instrs[0]
	if phi.Op != ir.OpPhi {
		return nil, nil, nil, false
	}
	for _, in := range b.Instrs[1 : n-1] {
		switch {
		case in.Op == ir.OpConst:
			// Position-independent, but a use outside b would lose
			// dominance once edges bypass b.
			if usedOutside(in, b) {
				return nil, nil, nil, false
			}
		case in.Op == ir.OpBin && isComparison(in.BinOp) && cmp == nil:
			cmp = in
		default:
			return nil, nil, nil, false
		}
	}
	if cmp == nil {
		if term.Args[0] != phi {
			return nil, nil, nil, false
		}
		if usedOutside(phi, b) {
			return nil, nil, nil, false
		}
		return phi, nil, term, true
	}
	if cmp.Args[0] != phi || term.Args[0] != cmp {
		return nil, nil, nil, false
	}
	if _, isC := isConst(cmp.Args[1]); !isC {
		return nil, nil, nil, false
	}
	// The phi and cmp must not be used outside this block (we do not
	// duplicate them along the threaded edge).
	if usedOutside(phi, b) || usedOutside(cmp, b) {
		return nil, nil, nil, false
	}
	return phi, cmp, term, true
}

func usedOutside(v *ir.Instr, b *ir.Block) bool {
	f := b.Func
	for _, b2 := range f.Blocks {
		if b2 == b {
			continue
		}
		for _, in := range b2.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

// phiIndexFor locates the phi entry for pred p; hint is the index of p in
// b.Preds, which usually matches.
func phiIndexFor(phi *ir.Instr, p *ir.Block, hint int) int {
	if hint < len(phi.Edges) && phi.Edges[hint] == p {
		return hint
	}
	for i, pb := range phi.Edges {
		if pb == p {
			return i
		}
	}
	return 0
}

// phisSafeToRetarget checks that every phi in target has its incoming value
// for pred b defined in a block dominating the new pred p, so the value
// remains well-defined on the threaded edge p -> target.
func phisSafeToRetarget(b, target, p *ir.Block, dt *ir.DomTree) bool {
	for _, in := range target.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for j, pb := range in.Edges {
			if pb == b {
				def := in.Args[j].Block
				if def == b || !dt.Dominates(def, p) {
					return false
				}
				found = true
			}
		}
		if !found {
			return false // inconsistent phi; be safe
		}
	}
	return true
}
