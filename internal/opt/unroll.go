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
	c := cfgPool.Get()
	defer putCFG(c)
	if removeUnreachable(f, c) {
		f.MarkMutated()
	}
	// One unroll per invocation; the pipeline iterates.
	return unrollOne(f, o, c)
}

// unrollBodyLimit caps total code growth per unrolled loop.
const unrollBodyLimit = 600

func unrollOne(f *ir.Func, o Options, c *cfgScratch) bool {
	for _, l := range c.loops(f) {
		if tryUnroll(f, l, o, c) {
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
	if l.Contains(t.Edges[1]) || !l.Contains(t.Edges[0]) {
		return cs, false
	}
	phi := cmp.Args[0]
	if phi.Op != ir.OpPhi || phi.Block != h || len(phi.Args) != 2 {
		return cs, false
	}
	for i := 0; i < 2; i++ {
		a, b := phi.Args[i], phi.Args[1-i]
		c0, ok0 := isConst(a)
		if !ok0 || l.Contains(phi.Edges[i]) {
			continue
		}
		if b.Op == ir.OpBin && b.BinOp == token.Plus && b.Args[0] == phi && l.Contains(phi.Edges[1-i]) {
			if s, ok1 := isConst(b.Args[1]); ok1 && s > 0 {
				cs.phi, cs.inc, cs.init, cs.step = phi, b, c0, s
				cs.bound = bound
				cs.trueTgt = t.Edges[0]
				cs.exit = t.Edges[1]
				return cs, true
			}
		}
	}
	return cs, false
}

func tryUnroll(f *ir.Func, l *ir.Loop, o Options, c *cfgScratch) bool {
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
	for _, b := range f.Blocks {
		if !l.Contains(b) || b == l.Header {
			continue
		}
		for _, s := range b.Succs() {
			if !l.Contains(s) {
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

	doUnroll(f, l, cs, pre, trips, c)
	return true
}

func doUnroll(f *ir.Func, l *ir.Loop, cs counterShape, pre *ir.Block, trips int64, c *cfgScratch) {
	h := l.Header

	// Collect header phis and their (outside, latch) incoming values.
	type phiInfo struct {
		phi        *ir.Instr
		outsideVal *ir.Instr
		latchVal   *ir.Instr
		subst      *ir.Instr // what the phi is in the iteration being cloned
	}
	var phis []phiInfo
	for _, in := range h.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		pi := phiInfo{phi: in}
		for i, pb := range in.Edges {
			if l.Contains(pb) {
				pi.latchVal = in.Args[i]
			} else {
				pi.outsideVal = in.Args[i]
			}
		}
		phis = append(phis, pi)
	}

	// Clone the body once per iteration. Every block created from here on
	// is a clone. Iteration k's maps (cur) start with its substitution for
	// the header phis, so a reference to a phi resolves like one to a
	// cloned value; prev holds iteration k-1's. An iteration writes only
	// the slots of the loop's blocks and values, so cur forgets those
	// instead of clearing a table as large as the function.
	latch := l.Latches[0]
	var order []*ir.Block // the loop's blocks, in function order
	for _, b := range f.Blocks {
		if l.Contains(b) {
			order = append(order, b)
		}
	}
	firstClone, nv := f.NumBlocks(), f.NumValues()
	prev, cur := clonePool.Get(), clonePool.Get()
	defer putCloneMap(prev)
	defer putCloneMap(cur)
	prev.reset(firstClone, nv)
	cur.reset(firstClone, nv)
	var entry, head, tail *ir.Block // clone 0's header; the last clone's header and latch
	for k := int64(0); k <= trips; k++ {
		for i := range phis {
			pi := &phis[i]
			if k == 0 {
				pi.subst = pi.outsideVal
			} else {
				// prev also holds the previous substitution, so a latch
				// value that is itself a header phi resolves too.
				pi.subst = pi.latchVal
				if v, ok := prev.val(pi.latchVal); ok {
					pi.subst = v
				}
			}
		}
		cur.forget(order)
		for _, pi := range phis {
			cur.setVal(pi.phi, pi.subst)
		}
		cloneIteration(f, l, order, cur, k == trips, cs)
		nh, _ := cur.block(h)
		if k == 0 {
			entry = nh
		} else {
			// Clone k-1's latch jumps to clone k's header.
			lt := tail.Term()
			for i, tgt := range lt.Edges {
				if tgt == head {
					lt.Edges[i] = nh
				}
			}
		}
		head = nh
		tail, _ = cur.block(latch)
		prev, cur = cur, prev
	}

	// Preheader enters clone 0.
	pt := pre.Term()
	for i, tgt := range pt.Edges {
		if tgt == h {
			pt.Edges[i] = entry
		}
	}

	// External uses of loop-defined values resolve to the final clone
	// (only header-defined values can dominate the outside).
	final := prev
	for _, b := range f.Blocks {
		if l.Contains(b) || b.ID >= firstClone {
			continue
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if na, ok := final.val(a); ok {
					in.Args[i] = na
				}
			}
			if in.Op == ir.OpPhi {
				for i, pb := range in.Edges {
					if pb == h {
						in.Edges[i] = head
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
		if !l.Contains(b) {
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
	f.RecomputePreds()
	removeUnreachable(f, c)
}

// cloneIteration clones the loop body, whose blocks order lists, for one
// iteration, mapping each loop block and value to its clone in m. Header
// phis are not cloned: m maps each to the value it takes in this
// iteration. When last is set, the header's branch exits the loop;
// otherwise it falls into this clone's body.
func cloneIteration(f *ir.Func, l *ir.Loop, order []*ir.Block, m *cloneMap, last bool, cs counterShape) {
	for _, b := range order {
		m.setBlock(b, f.NewBlock())
	}
	resolve := func(a *ir.Instr) *ir.Instr {
		if n, ok := m.val(a); ok {
			return n
		}
		return a
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
			if in.Op == ir.OpPhi && b == l.Header {
				continue // substituted away
			}
			if in == l.Header.Term() {
				br := nb.NewInstr(ir.OpBr, nil)
				if last {
					br.Edges = []*ir.Block{cs.exit}
				} else {
					br.Edges = []*ir.Block{mapBlock(cs.trueTgt)}
				}
				nb.Instrs = append(nb.Instrs, br)
				continue
			}
			ni := nb.NewInstr(in.Op, in.Typ)
			ni.IntVal = in.IntVal
			ni.Global = in.Global
			ni.Callee = in.Callee
			ni.BinOp = in.BinOp
			ni.Widened = in.Widened
			for _, a := range in.Args {
				ni.Args = append(ni.Args, resolve(a))
			}
			for _, t := range in.Edges {
				ni.Edges = append(ni.Edges, mapBlock(t))
			}
			m.setVal(in, ni)
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	// Fix forward references (e.g. phi args in body blocks referring to
	// later-cloned values through back edges within the body).
	for _, b := range order {
		for _, in := range mapBlock(b).Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
		}
	}
}
