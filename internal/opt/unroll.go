package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/token"
)

// Unroll fully unrolls counted loops with a compile-time trip count:
// the canonical `for (i = C0; i < N; i += S)` shape our frontend emits,
// with all exits through the header. Each iteration becomes a straight-line
// clone with the counter phi replaced by its concrete chain of values, so
// SCCP and InstCombine can finish the folding. Full unrolling is what lets
// compilers prove loop-carried facts like Listing 9e's `c[0]` being
// written on every path.
var Unroll = Pass{Name: "unroll", Fn: unrollFunc, Reads: func(o Options) Options {
	return Options{UnrollMaxTrip: o.UnrollMaxTrip}
}}

func unrollFunc(f *ir.Func, o Options) bool {
	if o.UnrollMaxTrip <= 0 {
		return false
	}
	// Loop cloning assumes every block is reachable (see unswitch). The
	// sweep's result is not part of this pass's changed flag (simplifycfg
	// owns that cleanup), but it is a body mutation the dirty tracking
	// must see.
	if removeUnreachable(f) {
		f.MarkMutated()
	}
	// One unroll per invocation; the pipeline iterates.
	return unrollOne(f, o)
}

// unrollBodyLimit caps total code growth per unrolled loop.
const unrollBodyLimit = 600

func unrollOne(f *ir.Func, o Options) bool {
	dt := ir.Dominators(f)
	loops := ir.NaturalLoops(f, dt)
	for _, l := range loops {
		if tryUnroll(f, l, o) {
			return true
		}
	}
	return false
}

// counterShape describes the canonical counted-loop pattern.
type counterShape struct {
	phi     *ir.Instr // counter phi in the header
	inc     *ir.Instr // phi + step
	init    int64
	step    int64
	bound   int64
	trips   int64
	trueTgt *ir.Block // loop body entry
	exit    *ir.Block
}

func matchCountedLoop(l *ir.Loop) (counterShape, bool) {
	var cs counterShape
	h := l.Header
	t := h.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return cs, false
	}
	cmp := t.Args[0]
	if cmp.Op != ir.OpBin || cmp.BinOp != token.Lt || cmp.Block != h {
		return cs, false
	}
	bound, ok := isConst(cmp.Args[1])
	if !ok {
		return cs, false
	}
	// The true edge must stay in the loop and the false edge must exit.
	if l.Blocks[t.Targets[1]] || !l.Blocks[t.Targets[0]] {
		return cs, false
	}
	phi := cmp.Args[0]
	if phi.Op != ir.OpPhi || phi.Block != h || len(phi.Args) != 2 {
		return cs, false
	}
	for i := 0; i < 2; i++ {
		a, b := phi.Args[i], phi.Args[1-i]
		c0, ok0 := isConst(a)
		if !ok0 || l.Blocks[phi.PhiPreds[i]] {
			continue
		}
		if b.Op == ir.OpBin && b.BinOp == token.Plus && b.Args[0] == phi && l.Blocks[phi.PhiPreds[1-i]] {
			if s, ok1 := isConst(b.Args[1]); ok1 && s > 0 {
				cs.phi, cs.inc, cs.init, cs.step = phi, b, c0, s
				cs.bound = bound
				cs.trueTgt = t.Targets[0]
				cs.exit = t.Targets[1]
				return cs, true
			}
		}
	}
	return cs, false
}

func tryUnroll(f *ir.Func, l *ir.Loop, o Options) bool {
	cs, ok := matchCountedLoop(l)
	if !ok {
		return false
	}
	if cs.init >= cs.bound {
		return false // zero-trip loop: SCCP's problem
	}
	trips := (cs.bound - cs.init + cs.step - 1) / cs.step
	if trips < 1 || trips > int64(o.UnrollMaxTrip) {
		return false
	}
	if trips*int64(loopSize(l)) > unrollBodyLimit {
		return false
	}
	// The counter must never wrap in its own type during the loop.
	last, okAdd := mulOv(trips, cs.step)
	if !okAdd {
		return false
	}
	last, okAdd = addOv(cs.init, last)
	if !okAdd || cs.phi.Typ.WrapValue(last) != last {
		return false
	}
	// All exits must leave from the header.
	for b := range l.Blocks {
		if b == l.Header {
			continue
		}
		for _, s := range b.Succs() {
			if !l.Blocks[s] {
				return false
			}
		}
	}
	// Single latch.
	if len(l.Latches) != 1 {
		return false
	}
	pre := preheader(f, l)
	if pre == nil {
		return false
	}

	doUnroll(f, l, cs, pre, trips)
	return true
}

func doUnroll(f *ir.Func, l *ir.Loop, cs counterShape, pre *ir.Block, trips int64) {
	h := l.Header

	// Collect header phis and their (outside, latch) incoming values.
	type phiInfo struct {
		phi        *ir.Instr
		outsideVal *ir.Instr
		latchVal   *ir.Instr
	}
	var phis []phiInfo
	for _, in := range h.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		pi := phiInfo{phi: in}
		for i, pb := range in.PhiPreds {
			if l.Blocks[pb] {
				pi.latchVal = in.Args[i]
			} else {
				pi.outsideVal = in.Args[i]
			}
		}
		phis = append(phis, pi)
	}

	latch := l.Latches[0]
	var bms []map[*ir.Block]*ir.Block
	var vms []map[*ir.Instr]*ir.Instr

	for k := int64(0); k <= trips; k++ {
		subst := map[*ir.Instr]*ir.Instr{}
		for _, pi := range phis {
			if k == 0 {
				subst[pi.phi] = pi.outsideVal
			} else {
				// vms[k-1] also contains the previous substitution, so a
				// latch value that is itself a header phi resolves too.
				v := pi.latchVal
				if nv, ok := vms[k-1][v]; ok {
					v = nv
				}
				subst[pi.phi] = v
			}
		}
		bm, vm := cloneIteration(f, l, subst, k == trips, cs)
		bms = append(bms, bm)
		vms = append(vms, vm)
		// Merge the phi substitution into the value map so the next
		// iteration (and external-use fixup) can resolve phi references.
		for p, v := range subst {
			vm[p] = v
		}
	}

	// Chain: clone k's latch jumps to clone k+1's header.
	for k := int64(0); k < trips; k++ {
		lt := bms[k][latch].Term()
		for i, tgt := range lt.Targets {
			if tgt == bms[k][h] {
				lt.Targets[i] = bms[k+1][h]
			}
		}
	}

	// Preheader enters clone 0.
	pt := pre.Term()
	for i, tgt := range pt.Targets {
		if tgt == h {
			pt.Targets[i] = bms[0][h]
		}
	}

	// External uses of loop-defined values resolve to the final clone
	// (only header-defined values can dominate the outside).
	final := vms[trips]
	for _, b := range f.Blocks {
		if l.Blocks[b] || isCloneBlock(bms, b) {
			continue
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if na, ok := final[a]; ok {
					in.Args[i] = na
				}
			}
			if in.Op == ir.OpPhi {
				for i, pb := range in.PhiPreds {
					if pb == h {
						in.PhiPreds[i] = bms[trips][h]
					}
				}
			}
		}
	}

	// Remove the original loop blocks, then sweep the unreachable clone
	// bodies (iteration `trips` exists only for its header) so no dangling
	// uses of loop values survive.
	var keep []*ir.Block
	for _, b := range f.Blocks {
		if !l.Blocks[b] {
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
	f.RecomputePreds()
	removeUnreachable(f)
}

func isCloneBlock(bms []map[*ir.Block]*ir.Block, b *ir.Block) bool {
	for _, bm := range bms {
		for _, nb := range bm {
			if nb == b {
				return true
			}
		}
	}
	return false
}

// cloneIteration clones the loop body for one iteration. Header phis are
// not cloned — references to them resolve through subst. When last is set,
// the header's branch exits the loop; otherwise it falls into this clone's
// body.
func cloneIteration(f *ir.Func, l *ir.Loop, subst map[*ir.Instr]*ir.Instr, last bool, cs counterShape) (map[*ir.Block]*ir.Block, map[*ir.Instr]*ir.Instr) {
	bm := map[*ir.Block]*ir.Block{}
	vm := map[*ir.Instr]*ir.Instr{}
	var order []*ir.Block
	for _, b := range f.Blocks {
		if l.Blocks[b] {
			order = append(order, b)
		}
	}
	for _, b := range order {
		bm[b] = f.NewBlock()
	}
	resolve := func(a *ir.Instr) *ir.Instr {
		if s, ok := subst[a]; ok {
			return s
		}
		if n, ok := vm[a]; ok {
			return n
		}
		return a
	}
	for _, b := range order {
		nb := bm[b]
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && b == l.Header {
				continue // substituted away
			}
			if in == l.Header.Term() {
				br := nb.NewInstr(ir.OpBr, nil)
				if last {
					br.Targets = []*ir.Block{cs.exit}
				} else {
					br.Targets = []*ir.Block{bm[cs.trueTgt]}
				}
				nb.Instrs = append(nb.Instrs, br)
				continue
			}
			ni := nb.NewInstr(in.Op, in.Typ)
			ni.IntVal = in.IntVal
			ni.Global = in.Global
			ni.Callee = in.Callee
			ni.ParamIdx = in.ParamIdx
			ni.Count = in.Count
			ni.BinOp = in.BinOp
			ni.Widened = in.Widened
			for _, a := range in.Args {
				ni.Args = append(ni.Args, resolve(a))
			}
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
	// Fix forward references (e.g. phi args in body blocks referring to
	// later-cloned values through back edges within the body).
	for _, b := range order {
		for _, in := range bm[b].Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
		}
	}
	return bm, vm
}
