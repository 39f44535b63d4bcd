package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/pool"
	"dcelens/internal/sema"
	"dcelens/internal/token"
)

// SCCP is sparse conditional constant propagation (Wegman-Zadeck) over the
// SSA graph, with a lattice that also tracks address constants
// (&global + offset) so that pointer comparisons can be decided. The
// FoldPtrCmpNonzeroOffset option gates folding &a == &b+k for k != 0,
// reproducing LLVM's EarlyCSE limitation from paper Listing 3.
var SCCP = Pass{Name: "sccp", Fn: sccpFunc, Reads: func(o Options) Options {
	return Options{FoldPtrCmpNonzeroOffset: o.FoldPtrCmpNonzeroOffset}
}}

var sccpPool = pool.Pool[sccpState]{New: func() *sccpState { return new(sccpState) }}

func sccpFunc(f *ir.Func, o Options) bool {
	s := sccpPool.Get()
	s.f, s.opts = f, o
	s.lat = resize(s.lat, f.NumValues())
	s.edgeExec = resize(s.edgeExec, f.NumBlocks()*2)
	s.blockExec = resize(s.blockExec, f.NumBlocks())
	s.buildUsers(f)
	s.solve()
	changed := s.apply()
	s.release()
	return changed
}

// release clears the state under the pooled-scratch rule (scratch.go) and
// returns it to its pool. solve leaves both worklists empty.
func (s *sccpState) release() {
	s.f, s.opts = nil, Options{}
	s.lat = shrink(s.lat, 0)
	s.userData = shrink(s.userData, 0)
	s.snapshot = shrink(s.snapshot, 0)
	s.reloc.Reset()
	sccpPool.Put(s)
}

// lattice values: unknown (top), a constant, or varying (bottom).
type latKind int

const (
	latUnknown latKind = iota
	latConstInt
	latConstNull
	latConstAddr
	latVarying
)

type lattice struct {
	kind latKind
	i    int64
	g    *ir.Global
	off  int64
}

func (a lattice) equal(b lattice) bool { return a == b }

// meet combines two lattice values.
func meet(a, b lattice) lattice {
	if a.kind == latUnknown {
		return b
	}
	if b.kind == latUnknown {
		return a
	}
	if a.equal(b) {
		return a
	}
	return lattice{kind: latVarying}
}

// buildUsers constructs the def→use edges in CSR form: userStart[id] /
// userStart[id+1] delimit id's users inside userData. Two dense passes
// over pooled tables — no per-value map entries or append-grown slices.
func (s *sccpState) buildUsers(f *ir.Func) {
	n := f.NumValues()
	start := resize(s.userStart, n+1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				start[a.ID+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	data := resize(s.userData, int(start[n]))
	fill := resize(s.userFill, n)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				data[start[a.ID]+fill[a.ID]] = in
				fill[a.ID]++
			}
		}
	}
	s.userStart, s.userData, s.userFill = start, data, fill
}

func (s *sccpState) users(in *ir.Instr) []*ir.Instr {
	return s.userData[s.userStart[in.ID]:s.userStart[in.ID+1]]
}

type sccpState struct {
	f    *ir.Func
	opts Options
	// lat is indexed by Instr.ID, blockExec by Block.ID; an edge is a
	// (from-block, terminator target slot) pair at edgeExec[2*from.ID+slot]
	// — every terminator has at most two targets. The (from, to) pair
	// identity of classic SCCP is preserved by marking/querying every slot
	// of from that targets to.
	lat       []lattice
	edgeExec  []bool
	blockExec []bool
	userStart []int32
	userData  []*ir.Instr
	userFill  []int32

	flowWork [][2]*ir.Block
	ssaWork  []*ir.Instr

	// apply's scratch: the block being rewritten, copied before constants
	// are inserted into it, and the batched replacements.
	snapshot []*ir.Instr
	reloc    ir.Relocator
}

// edgeIsExec reports whether the CFG edge from→to is executable.
func (s *sccpState) edgeIsExec(from, to *ir.Block) bool {
	t := from.Term()
	if t == nil {
		return false
	}
	for i, tgt := range t.Edges {
		if tgt == to && s.edgeExec[2*from.ID+i] {
			return true
		}
	}
	return false
}

// markEdgeExec marks the edge from→to executable, returning false when it
// already was.
func (s *sccpState) markEdgeExec(from, to *ir.Block) bool {
	t := from.Term()
	if t == nil {
		return false
	}
	marked := false
	for i, tgt := range t.Edges {
		if tgt == to && !s.edgeExec[2*from.ID+i] {
			s.edgeExec[2*from.ID+i] = true
			marked = true
		}
	}
	return marked
}

func (s *sccpState) solve() {
	s.markBlock(s.f.Entry())
	for len(s.flowWork) > 0 || len(s.ssaWork) > 0 {
		for len(s.ssaWork) > 0 {
			in := pop(&s.ssaWork)
			if s.blockExec[in.Block.ID] {
				s.visit(in)
			}
		}
		for len(s.flowWork) > 0 {
			e := pop(&s.flowWork)
			if !s.markEdgeExec(e[0], e[1]) {
				continue
			}
			dst := e[1]
			if s.blockExec[dst.ID] {
				// Re-evaluate phis: a new edge became executable.
				for _, in := range dst.Instrs {
					if in.Op != ir.OpPhi {
						break
					}
					s.visit(in)
				}
			} else {
				s.markBlock(dst)
			}
		}
	}
}

func (s *sccpState) markBlock(b *ir.Block) {
	if s.blockExec[b.ID] {
		return
	}
	s.blockExec[b.ID] = true
	for _, in := range b.Instrs {
		s.visit(in)
	}
}

func (s *sccpState) setLat(in *ir.Instr, v lattice) {
	old := s.lat[in.ID]
	// Monotonic only: never move back up the lattice.
	if old.kind == latVarying || old.equal(v) {
		return
	}
	if old.kind != latUnknown && v.kind != latVarying {
		v = lattice{kind: latVarying}
	}
	s.lat[in.ID] = v
	s.ssaWork = append(s.ssaWork, s.users(in)...)
	if t := in.Block.Term(); t != nil && t.Op == ir.OpCondBr && len(t.Args) > 0 && t.Args[0] == in {
		s.ssaWork = append(s.ssaWork, t)
	}
}

func (s *sccpState) value(in *ir.Instr) lattice { return s.lat[in.ID] }

func (s *sccpState) visit(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst:
		s.setLat(in, lattice{kind: latConstInt, i: in.IntVal})
	case ir.OpNull:
		s.setLat(in, lattice{kind: latConstNull})
	case ir.OpGlobalAddr:
		s.setLat(in, lattice{kind: latConstAddr, g: in.Global})
	case ir.OpParam, ir.OpLoad, ir.OpCall, ir.OpAlloca, ir.OpFreeze:
		// Freeze is deliberately opaque: its result never folds even when
		// its operand is a known constant (the blocking behaviour the
		// paper's unswitching regression hinges on).
		if in.Typ != nil {
			s.setLat(in, lattice{kind: latVarying})
		}
	case ir.OpPhi:
		v := lattice{}
		for i, a := range in.Args {
			if !s.edgeIsExec(in.Edges[i], in.Block) {
				continue
			}
			v = meet(v, s.value(a))
			if v.kind == latVarying {
				break
			}
		}
		if v.kind != latUnknown {
			s.setLat(in, v)
		}
	case ir.OpCast:
		x := s.value(in.Args[0])
		switch x.kind {
		case latConstInt:
			s.setLat(in, lattice{kind: latConstInt, i: in.Typ.WrapValue(x.i)})
		case latVarying:
			s.setLat(in, lattice{kind: latVarying})
		}
	case ir.OpGEP:
		p := s.value(in.Args[0])
		idx := s.value(in.Args[1])
		switch {
		case p.kind == latConstAddr && idx.kind == latConstInt:
			s.setLat(in, lattice{kind: latConstAddr, g: p.g, off: p.off + idx.i})
		case p.kind == latVarying || idx.kind == latVarying:
			s.setLat(in, lattice{kind: latVarying})
		}
	case ir.OpSelect:
		c := s.value(in.Args[0])
		switch c.kind {
		case latConstInt, latConstNull, latConstAddr:
			taken := in.Args[2]
			if truthyLat(c) {
				taken = in.Args[1]
			}
			if v := s.value(taken); v.kind != latUnknown {
				s.setLat(in, v)
			}
		case latVarying:
			v := meet(s.value(in.Args[1]), s.value(in.Args[2]))
			if v.kind != latUnknown {
				s.setLat(in, v)
			}
		}
	case ir.OpBin:
		s.visitBin(in)
	case ir.OpBr:
		s.addFlow(in.Block, in.Edges[0])
	case ir.OpCondBr:
		c := s.value(in.Args[0])
		switch c.kind {
		case latConstInt, latConstNull, latConstAddr:
			if truthyLat(c) {
				s.addFlow(in.Block, in.Edges[0])
			} else {
				s.addFlow(in.Block, in.Edges[1])
			}
		case latVarying:
			s.addFlow(in.Block, in.Edges[0])
			s.addFlow(in.Block, in.Edges[1])
		}
	case ir.OpStore, ir.OpRet:
		// no lattice value
	}
}

func truthyLat(v lattice) bool {
	switch v.kind {
	case latConstInt:
		return v.i != 0
	case latConstNull:
		return false
	case latConstAddr:
		return true
	}
	return false
}

func (s *sccpState) addFlow(from, to *ir.Block) {
	if !s.edgeIsExec(from, to) {
		s.flowWork = append(s.flowWork, [2]*ir.Block{from, to})
	}
}

func (s *sccpState) visitBin(in *ir.Instr) {
	x := s.value(in.Args[0])
	y := s.value(in.Args[1])
	if x.kind == latUnknown || y.kind == latUnknown {
		return
	}

	// Integer constant folding.
	if x.kind == latConstInt && y.kind == latConstInt {
		opTy := in.Args[0].Typ
		if v, ok := sema.EvalBinop(in.BinOp, x.i, y.i, opTy, in.Typ); ok {
			s.setLat(in, lattice{kind: latConstInt, i: v})
			return
		}
		s.setLat(in, lattice{kind: latVarying})
		return
	}

	// Pointer comparisons against constant addresses / null.
	if in.BinOp == token.EqEq || in.BinOp == token.NotEq {
		if v, ok := s.foldPtrCmp(in.BinOp, x, y); ok {
			s.setLat(in, lattice{kind: latConstInt, i: v})
			return
		}
	}
	s.setLat(in, lattice{kind: latVarying})
}

// foldPtrCmp decides equality of two pointer lattice constants, honouring
// the FoldPtrCmpNonzeroOffset knob: without it, comparisons where either
// side has a nonzero offset are left undecided (paper Listing 3).
func (s *sccpState) foldPtrCmp(op token.Kind, x, y lattice) (int64, bool) {
	boolVal := func(eq bool) int64 {
		if (op == token.EqEq) == eq {
			return 1
		}
		return 0
	}
	isAddrish := func(v lattice) bool { return v.kind == latConstAddr || v.kind == latConstNull }
	if !isAddrish(x) || !isAddrish(y) {
		return 0, false
	}
	if x.kind == latConstNull && y.kind == latConstNull {
		return boolVal(true), true
	}
	if x.kind == latConstNull || y.kind == latConstNull {
		// &g + off is never null (MiniC objects have nonzero addresses and
		// in-bounds offsets).
		return boolVal(false), true
	}
	if !s.opts.FoldPtrCmpNonzeroOffset && (x.off != 0 || y.off != 0) {
		return 0, false
	}
	if x.g == y.g {
		return boolVal(x.off == y.off), true
	}
	// Distinct objects have distinct addresses at every offset in MiniC
	// (in-bounds offsets only, no one-past-the-end aliasing).
	return boolVal(false), true
}

// apply rewrites the function according to the solved lattice: constants
// are materialized, constant branches are folded, and unreachable blocks
// are left for SimplifyCFG.
func (s *sccpState) apply() bool {
	changed := false
	// Constant materializations don't read each other's results: batch every
	// replacement and rewrite all argument slots in one sweep at the end.
	reloc := &s.reloc
	for _, b := range s.f.Blocks {
		if !s.blockExec[b.ID] {
			continue
		}
		// Replacements for phis must be inserted after the phi group to
		// keep phis at the block head.
		insertPos := func(in *ir.Instr) *ir.Instr {
			if in.Op != ir.OpPhi {
				return in
			}
			for _, x := range b.Instrs {
				if x.Op != ir.OpPhi {
					return x
				}
			}
			return in // unreachable: a block always has a terminator
		}
		// A shorter block drops the snapshot's tail: zero it first.
		clear(s.snapshot[min(len(s.snapshot), len(b.Instrs)):])
		s.snapshot = append(s.snapshot[:0], b.Instrs...)
		for _, in := range s.snapshot {
			v := s.lat[in.ID]
			if in.Typ == nil {
				continue
			}
			switch v.kind {
			case latConstInt:
				if in.Op == ir.OpConst {
					continue
				}
				if in.HasSideEffects() {
					continue // calls keep executing; their value just isn't known
				}
				c := b.NewInstr(ir.OpConst, in.Typ)
				c.IntVal = in.Typ.WrapValue(v.i)
				b.InsertBefore(c, insertPos(in))
				reloc.Add(in, c)
				changed = true
			case latConstNull:
				if in.Op == ir.OpNull || in.HasSideEffects() {
					continue
				}
				n := b.NewInstr(ir.OpNull, in.Typ)
				b.InsertBefore(n, insertPos(in))
				reloc.Add(in, n)
				changed = true
			}
		}
	}
	reloc.Apply(s.f)
	// Fold branches whose conditions resolved to constants or whose edges
	// were proven non-executable.
	for _, b := range s.f.Blocks {
		if !s.blockExec[b.ID] {
			continue
		}
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		trueExec := s.edgeIsExec(b, t.Edges[0])
		falseExec := s.edgeIsExec(b, t.Edges[1])
		if trueExec && falseExec {
			continue
		}
		var live, dead *ir.Block
		if trueExec {
			live, dead = t.Edges[0], t.Edges[1]
		} else if falseExec {
			live, dead = t.Edges[1], t.Edges[0]
		} else {
			continue // block executable but no out-edge marked: terminator unreached in solve (shouldn't happen)
		}
		if live == dead {
			continue
		}
		ir.RemoveEdge(b, dead)
		t.Op = ir.OpBr
		t.Args = nil
		t.Edges = []*ir.Block{live}
		changed = true
	}
	return changed
}
