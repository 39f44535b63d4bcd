package opt

import (
	"sync"

	"dcelens/internal/ir"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// VRP is a lightweight value-range propagation pass: it computes signed
// intervals for SSA values (with a special pattern for canonical loop
// counters) and folds comparisons whose operand ranges decide them.
//
// Two knobs reproduce paper findings:
//   - ShiftNonzeroRelation (Listing 9a): without it, shifts produce the
//     full range — GCC's missing "x<<y != 0 when no bits can be lost".
//   - ConstArrayLoadFold interacts elsewhere; the modulo-range relation of
//     Listing 8b corresponds to rem range computation below, which is
//     always on (its absence shows up in llvm-sim's history as a commit).
var VRP = Pass{Name: "vrp", Fn: vrpFunc}

// vrange is a signed interval [lo, hi]; full means "no information".
type vrange struct {
	lo, hi int64
	full   bool
}

func fullR() vrange            { return vrange{full: true} }
func constR(v int64) vrange    { return vrange{lo: v, hi: v} }
func (r vrange) isConst() bool { return !r.full && r.lo == r.hi }

// typeRange is the representable interval of a type in the signed domain.
// Unsigned 64-bit values do not fit the signed domain; treat U64 as full.
func typeRange(t *types.Type) vrange {
	if !t.IsInteger() {
		return fullR()
	}
	if t.IsSigned() {
		switch t.Bits() {
		case 8:
			return vrange{lo: -128, hi: 127}
		case 16:
			return vrange{lo: -32768, hi: 32767}
		case 32:
			return vrange{lo: -2147483648, hi: 2147483647}
		default:
			return fullR()
		}
	}
	switch t.Bits() {
	case 8:
		return vrange{lo: 0, hi: 255}
	case 16:
		return vrange{lo: 0, hi: 65535}
	case 32:
		return vrange{lo: 0, hi: 4294967295}
	default:
		return fullR() // u64 exceeds the signed domain
	}
}

func union(a, b vrange) vrange {
	if a.full || b.full {
		return fullR()
	}
	return vrange{lo: min64(a.lo, b.lo), hi: max64(a.hi, b.hi)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// knownRange is one slot of vrp's dense range table: the value's range,
// once known is set.
type knownRange struct {
	r     vrange
	known bool
}

// vrpPool recycles vrp's range table (see scratch.go; the table holds no
// pointers, so it needs no clearing on return).
var vrpPool = sync.Pool{New: func() any { return new([]knownRange) }}

func vrpFunc(f *ir.Func, o Options) bool {
	// Ranges by Instr.ID, for the values f has on entry; values created
	// later (the folded constants) have none.
	table := vrpPool.Get().(*[]knownRange)
	defer vrpPool.Put(table)
	*table = resize(*table, f.NumValues())
	ranges := *table
	get := func(v *ir.Instr) vrange {
		if v.ID < len(ranges) && ranges[v.ID].known {
			return ranges[v.ID].r
		}
		return fullR()
	}

	dt := ir.Dominators(f)
	counterRanges := loopCounterRanges(f, dt)

	// Fixpoint with a visit cap; ranges only widen (to full) so this
	// terminates quickly.
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, b := range dt.RPO() {
			for _, in := range b.Instrs {
				var r vrange
				switch in.Op {
				case ir.OpConst:
					r = constR(in.IntVal)
				case ir.OpCast:
					r = castRange(get(in.Args[0]), in.Args[0].Typ, in.Typ)
				case ir.OpPhi:
					if cr, ok := counterRanges[in]; ok {
						r = cr
					} else {
						r = vrange{lo: 1<<62 - 1, hi: -(1 << 62)} // empty; union below
						first := true
						for _, a := range in.Args {
							if a == in {
								continue
							}
							if first {
								r = get(a)
								first = false
							} else {
								r = union(r, get(a))
							}
						}
						if first {
							r = fullR()
						}
					}
				case ir.OpBin:
					r = binRange(in, get(in.Args[0]), get(in.Args[1]), o)
				case ir.OpSelect:
					r = union(get(in.Args[1]), get(in.Args[2]))
				case ir.OpLoad, ir.OpCall, ir.OpParam:
					if in.Typ != nil && in.Typ.IsInteger() {
						r = typeRange(in.Typ)
					} else {
						r = fullR()
					}
				default:
					continue
				}
				// Soundness clamp: a computed range is the *mathematical*
				// result interval; if it does not fit the type's canonical
				// domain the operation may have wrapped, and the only sound
				// answer is the full type range. Never intersect partially
				// (0 - [0,2^32) on u32 is NOT [0,0] — it wraps).
				if in.Typ != nil && in.Typ.IsInteger() {
					r = soundClamp(r, in.Typ)
				}
				if old := ranges[in.ID]; !old.known || old.r != r {
					ranges[in.ID] = knownRange{r, true}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Fold comparisons decided by the ranges. Replacements are batched;
	// operands are read through the batch so a comparison whose input was
	// folded this sweep sees the fresh constant (range-less), exactly as if
	// each replacement had been applied eagerly.
	foldedAny := false
	reloc := getRelocator()
	defer putRelocator(reloc)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpBin || !isComparison(in.BinOp) {
				continue
			}
			a0, a1 := reloc.Resolve(in.Args[0]), reloc.Resolve(in.Args[1])
			tx := a0.Typ
			if tx == nil || !tx.IsInteger() {
				continue
			}
			// Unsigned comparisons are only decided when both ranges are
			// non-negative (then signed and unsigned orders agree).
			rx, ry := get(a0), get(a1)
			if rx.full || ry.full {
				continue
			}
			if !tx.IsSigned() && (rx.lo < 0 || ry.lo < 0) {
				continue
			}
			verdict, ok := decideCmp(in.BinOp, rx, ry)
			if !ok {
				continue
			}
			c := constOf(in, verdict, in.Typ)
			reloc.Add(in, c)
			foldedAny = true
		}
	}
	if foldedAny {
		reloc.Apply(f)
		dceFunc(f, Options{}) // cleanup sweep; no remarks
	}
	return foldedAny
}

func soundClamp(r vrange, t *types.Type) vrange {
	tr := typeRange(t)
	if tr.full {
		return r
	}
	if r.full {
		return tr
	}
	if r.lo >= tr.lo && r.hi <= tr.hi {
		return r // fits: no wrap was possible
	}
	return tr
}

func castRange(r vrange, from, to *types.Type) vrange {
	if r.full || !to.IsInteger() || !from.IsInteger() {
		return fullR()
	}
	tr := typeRange(to)
	if tr.full {
		// widening to 64-bit keeps the range (value-preserving when the
		// source range is canonical for its type)
		return r
	}
	if r.lo >= tr.lo && r.hi <= tr.hi {
		return r // fits: conversion is value-preserving
	}
	return tr
}

func binRange(in *ir.Instr, x, y vrange, o Options) vrange {
	op := in.BinOp
	t := in.Typ
	if t == nil || !t.IsInteger() {
		return fullR()
	}
	if isComparison(op) {
		return vrange{lo: 0, hi: 1}
	}
	if x.full || y.full {
		// A couple of shapes still bound the result.
		switch op {
		case token.Percent:
			if y.isConst() && y.lo > 0 && t.IsSigned() {
				// Signed remainder magnitude is bounded by |y|-1.
				return vrange{lo: -(y.lo - 1), hi: y.lo - 1}
			}
		case token.Amp:
			if y.isConst() && y.lo >= 0 {
				return vrange{lo: 0, hi: y.lo}
			}
			if x.isConst() && x.lo >= 0 {
				return vrange{lo: 0, hi: x.lo}
			}
		}
		return fullR()
	}
	checked := func(lo, hi int64, okLo, okHi bool) vrange {
		if !okLo || !okHi {
			return fullR()
		}
		return vrange{lo: lo, hi: hi}
	}
	switch op {
	case token.Plus:
		lo, ok1 := addOv(x.lo, y.lo)
		hi, ok2 := addOv(x.hi, y.hi)
		return checked(lo, hi, ok1, ok2)
	case token.Minus:
		lo, ok1 := addOv(x.lo, -y.hi)
		hi, ok2 := addOv(x.hi, -y.lo)
		if y.hi == -9223372036854775808 || y.lo == -9223372036854775808 {
			return fullR()
		}
		return checked(lo, hi, ok1, ok2)
	case token.Star:
		var cands []int64
		for _, a := range []int64{x.lo, x.hi} {
			for _, b := range []int64{y.lo, y.hi} {
				p, ok := mulOv(a, b)
				if !ok {
					return fullR()
				}
				cands = append(cands, p)
			}
		}
		lo, hi := cands[0], cands[0]
		for _, c := range cands[1:] {
			lo, hi = min64(lo, c), max64(hi, c)
		}
		return vrange{lo: lo, hi: hi}
	case token.Percent:
		// Modulo-range relation (cf. paper Listing 8b, where LLVM lacked
		// the rem case for singleton ranges).
		if y.isConst() && y.lo > 0 {
			if x.lo >= 0 {
				if x.hi < y.lo {
					return x // x already < y: rem is the identity (folded later by instcombine? keep range only)
				}
				return vrange{lo: 0, hi: y.lo - 1}
			}
			return vrange{lo: -(y.lo - 1), hi: y.lo - 1}
		}
		return fullR()
	case token.Slash:
		if y.isConst() && y.lo > 0 && x.lo >= 0 {
			return vrange{lo: x.lo / y.lo, hi: x.hi / y.lo}
		}
		return fullR()
	case token.Amp:
		if x.lo >= 0 && y.lo >= 0 {
			return vrange{lo: 0, hi: min64(x.hi, y.hi)}
		}
		return fullR()
	case token.Pipe, token.Caret:
		if x.lo >= 0 && y.lo >= 0 {
			// Bounded by the next power of two above both maxima.
			m := ceilPow2(max64(x.hi, y.hi))
			return vrange{lo: 0, hi: m}
		}
		return fullR()
	case token.Shl:
		if !o.ShiftNonzeroRelation {
			return fullR() // the missing relation: shifts are opaque
		}
		if y.lo >= 0 && y.hi < int64(t.Bits()) && x.lo >= 0 {
			hi, ok := shlOv(x.hi, y.hi, t)
			if !ok {
				return fullR()
			}
			return vrange{lo: x.lo << uint(y.lo), hi: hi}
		}
		return fullR()
	case token.Shr:
		if y.lo >= 0 && y.hi < int64(t.Bits()) && x.lo >= 0 {
			return vrange{lo: x.lo >> uint(y.hi), hi: x.hi >> uint(y.lo)}
		}
		return fullR()
	}
	return fullR()
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func shlOv(a, sh int64, t *types.Type) (int64, bool) {
	if a < 0 || sh < 0 || sh >= 63 {
		return 0, false
	}
	v := a << uint(sh)
	if v>>uint(sh) != a {
		return 0, false
	}
	// Must still be canonical for the type.
	if t.WrapValue(v) != v {
		return 0, false
	}
	return v, true
}

func ceilPow2(v int64) int64 {
	if v < 0 {
		return 1<<62 - 1
	}
	p := int64(1)
	for p <= v && p > 0 {
		p <<= 1
	}
	return p - 1
}

func decideCmp(op token.Kind, x, y vrange) (int64, bool) {
	switch op {
	case token.Lt:
		if x.hi < y.lo {
			return 1, true
		}
		if x.lo >= y.hi {
			return 0, true
		}
	case token.Le:
		if x.hi <= y.lo {
			return 1, true
		}
		if x.lo > y.hi {
			return 0, true
		}
	case token.Gt:
		if x.lo > y.hi {
			return 1, true
		}
		if x.hi <= y.lo {
			return 0, true
		}
	case token.Ge:
		if x.lo >= y.hi {
			return 1, true
		}
		if x.hi < y.lo {
			return 0, true
		}
	case token.EqEq:
		if x.isConst() && y.isConst() && x.lo == y.lo {
			return 1, true
		}
		if x.hi < y.lo || x.lo > y.hi {
			return 0, true
		}
	case token.NotEq:
		if x.isConst() && y.isConst() && x.lo == y.lo {
			return 0, true
		}
		if x.hi < y.lo || x.lo > y.hi {
			return 1, true
		}
	}
	return 0, false
}

// loopCounterRanges recognizes the canonical counter pattern our frontend
// emits — phi i = [C0, preheader] [i + S, latch] with a header comparison
// i < N guarding the latch — and assigns the phi the range [C0, N-1+S]
// (for positive S; symmetric for negative).
func loopCounterRanges(f *ir.Func, dt *ir.DomTree) map[*ir.Instr]vrange {
	out := map[*ir.Instr]vrange{}
	loops := ir.NaturalLoops(f, dt)
	for _, l := range loops {
		h := l.Header
		// Header must end in condbr(lt(i, N)) with the false edge leaving
		// the loop.
		t := h.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		cmp := t.Args[0]
		if cmp.Op != ir.OpBin || cmp.BinOp != token.Lt {
			continue
		}
		bound, ok := isConst(cmp.Args[1])
		if !ok {
			continue
		}
		if l.Blocks[t.Targets[1]] {
			continue // false edge must exit
		}
		phi := cmp.Args[0]
		if phi.Op != ir.OpPhi || phi.Block != h || len(phi.Args) != 2 {
			continue
		}
		// One arm: constant init from outside; other: phi + const step from
		// inside.
		var init, step int64
		okShape := false
		for i := 0; i < 2; i++ {
			a, b := phi.Args[i], phi.Args[1-i]
			c0, ok0 := isConst(a)
			if !ok0 || l.Blocks[phi.PhiPreds[i]] {
				continue
			}
			if b.Op == ir.OpBin && b.BinOp == token.Plus && b.Args[0] == phi {
				if s, ok1 := isConst(b.Args[1]); ok1 && s > 0 && l.Blocks[phi.PhiPreds[1-i]] {
					init, step = c0, s
					okShape = true
				}
			}
		}
		if !okShape || init >= bound {
			continue
		}
		// i starts at init, increments by step while i < bound: the phi's
		// value is in [init, bound-1+step]... the phi itself only ever
		// holds values < bound+step; at the comparison it is in
		// [init, bound+step-1], but conservatively the phi (observed at
		// the header) is in [init, bound-1+step].
		hi, ok2 := addOv(bound-1, step)
		if !ok2 || phi.Typ.WrapValue(hi) != hi {
			// The increment could wrap in the counter's type; the neat
			// interval story no longer holds.
			continue
		}
		out[phi] = vrange{lo: init, hi: hi}
	}
	return out
}
