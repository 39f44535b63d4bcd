package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/sema"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// InstCombine is the peephole combiner: local algebraic simplifications on
// single instructions (plus their operands' shapes). Mirrors the role of
// LLVM's instcombine / GCC's match.pd folders. The paper bisects several
// missed optimizations to peephole-pattern changes (Tables 3/4).
var InstCombine = Pass{Name: "instcombine", Fn: instCombineFunc}

func instCombineFunc(f *ir.Func, o Options) bool {
	changed := false
	reloc := getRelocator()
	for {
		local := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				// Canonicalize operands through this sweep's pending
				// replacements so combine sees what an eager rewriter
				// would have seen.
				if !reloc.Empty() {
					for i, a := range in.Args {
						if n := reloc.Resolve(a); n != a {
							in.Args[i] = n
						}
					}
				}
				if rep := combine(in, o); rep != nil && rep != in {
					reloc.Add(in, rep)
					local = true
				}
			}
		}
		if !local {
			break
		}
		changed = true
		reloc.Apply(f)
		reloc.Reset()
		dceFunc(f, Options{}) // drop the now-dead originals before the next sweep (no remarks: it is instcombine cleanup, not a dce decision)
	}
	putRelocator(reloc)
	return changed
}

// isConst returns the operand's constant value if it is an integer constant.
func isConst(in *ir.Instr) (int64, bool) {
	if in.Op == ir.OpConst {
		return in.IntVal, true
	}
	return 0, false
}

// constOf materializes a constant of the given type just before pos.
func constOf(pos *ir.Instr, v int64, t *types.Type) *ir.Instr {
	c := pos.Block.NewInstr(ir.OpConst, t)
	c.IntVal = t.WrapValue(v)
	pos.Block.InsertBefore(c, pos)
	return c
}

// combine returns a replacement value for in, or nil when no rule applies.
func combine(in *ir.Instr, o Options) *ir.Instr {
	switch in.Op {
	case ir.OpBin:
		return combineBin(in, o)
	case ir.OpCast:
		return combineCast(in)
	case ir.OpGEP:
		return combineGEP(in)
	case ir.OpSelect:
		return combineSelect(in)
	}
	return nil
}

func combineCast(in *ir.Instr) *ir.Instr {
	x := in.Args[0]
	if types.Identical(x.Typ, in.Typ) {
		return x
	}
	if v, ok := isConst(x); ok {
		return constOf(in, in.Typ.WrapValue(v), in.Typ)
	}
	// cast_B(cast_A(v)): when B is at most as wide as A, the inner cast
	// preserves the low B bits, so the outer cast alone is equivalent.
	if x.Op == ir.OpCast && in.Typ.Bits() <= x.Args[0].Typ.Bits() && in.Typ.Bits() <= x.Typ.Bits() {
		c := in.Block.NewInstr(ir.OpCast, in.Typ, x.Args[0])
		in.Block.InsertBefore(c, in)
		return c
	}
	return nil
}

func combineGEP(in *ir.Instr) *ir.Instr {
	if v, ok := isConst(in.Args[1]); ok && v == 0 {
		return in.Args[0]
	}
	// gep(gep(p, a), b) with constant a, b → gep(p, a+b)
	base := in.Args[0]
	if base.Op == ir.OpGEP {
		a, okA := isConst(base.Args[1])
		b, okB := isConst(in.Args[1])
		if okA && okB {
			idx := constOf(in, a+b, types.I64Type)
			g := in.Block.NewInstr(ir.OpGEP, in.Typ, base.Args[0], idx)
			in.Block.InsertBefore(g, in)
			return g
		}
	}
	return nil
}

func combineSelect(in *ir.Instr) *ir.Instr {
	if v, ok := isConst(in.Args[0]); ok {
		if v != 0 {
			return in.Args[1]
		}
		return in.Args[2]
	}
	if in.Args[0].Op == ir.OpNull {
		return in.Args[2]
	}
	if in.Args[1] == in.Args[2] {
		return in.Args[1]
	}
	return nil
}

func combineBin(in *ir.Instr, o Options) *ir.Instr {
	x, y := in.Args[0], in.Args[1]
	xc, xIsC := isConst(x)
	yc, yIsC := isConst(y)

	// Constant-constant folding.
	if xIsC && yIsC {
		if v, ok := sema.EvalBinop(in.BinOp, xc, yc, x.Typ, in.Typ); ok {
			return constOf(in, v, in.Typ)
		}
	}

	// Canonicalize commutative operations: constant on the right.
	if xIsC && !yIsC && isCommutative(in.BinOp) {
		in.Args[0], in.Args[1] = y, x
		x, y = in.Args[0], in.Args[1]
		xc, xIsC, yc, yIsC = yc, yIsC, xc, xIsC
	}
	_ = xc

	// Pointer comparison folding (EarlyCSE-style): both sides resolve to
	// distinct (global, const-offset) addresses.
	if in.BinOp == token.EqEq || in.BinOp == token.NotEq {
		if r := foldPtrCmpSyntactic(in, o); r != nil {
			return r
		}
	}

	// Identical operands.
	if x == y {
		switch in.BinOp {
		case token.Minus, token.Caret:
			if in.Typ.IsInteger() {
				return constOf(in, 0, in.Typ)
			}
		case token.Amp, token.Pipe:
			return x
		case token.EqEq, token.Le, token.Ge:
			if x.Typ.IsInteger() || x.Typ.Kind == types.Pointer {
				return constOf(in, 1, in.Typ)
			}
		case token.NotEq, token.Lt, token.Gt:
			if x.Typ.IsInteger() || x.Typ.Kind == types.Pointer {
				return constOf(in, 0, in.Typ)
			}
		}
	}

	if !yIsC || !in.Typ.IsInteger() {
		return combineBoolPattern(in)
	}

	// Identities with a constant right operand.
	switch in.BinOp {
	case token.Plus, token.Minus, token.Shl, token.Shr, token.Caret:
		// x op 0 == x (shifting by zero included).
		if yc == 0 && types.Identical(x.Typ, in.Typ) {
			return x
		}
	case token.Star:
		if yc == 0 {
			return constOf(in, 0, in.Typ)
		}
		if yc == 1 && types.Identical(x.Typ, in.Typ) {
			return x
		}
	case token.Slash:
		if yc == 1 && types.Identical(x.Typ, in.Typ) {
			return x
		}
		if yc == 0 {
			// MiniC total division: x/0 == 0.
			return constOf(in, 0, in.Typ)
		}
	case token.Percent:
		if yc == 1 {
			return constOf(in, 0, in.Typ)
		}
	case token.Amp:
		if yc == 0 {
			return constOf(in, 0, in.Typ)
		}
		if yc == -1 && types.Identical(x.Typ, in.Typ) {
			return x
		}
	case token.Pipe:
		if yc == 0 && types.Identical(x.Typ, in.Typ) {
			return x
		}
		if yc == -1 {
			return constOf(in, -1, in.Typ)
		}
	}
	return combineBoolPattern(in)
}

func isCommutative(op token.Kind) bool {
	switch op {
	case token.Plus, token.Star, token.Amp, token.Pipe, token.Caret, token.EqEq, token.NotEq:
		return true
	}
	return false
}

// combineBoolPattern simplifies comparison-of-comparison chains produced by
// the lowering of ! and short-circuit joins:
//
//	eq(eq(x, 0), 0)  → ne(x, 0)   (!!x)
//	eq(ne(x, 0), 0)  → eq(x, 0)
//	ne(b, 0)         → b          when b is itself a comparison (0/1-valued)
func combineBoolPattern(in *ir.Instr) *ir.Instr {
	if in.Op != ir.OpBin {
		return nil
	}
	y, yIsC := isConst(in.Args[1])
	if !yIsC || y != 0 {
		return nil
	}
	x := in.Args[0]
	if x.Op != ir.OpBin || !isComparison(x.BinOp) {
		return nil
	}
	switch in.BinOp {
	case token.NotEq:
		// x is 0/1-valued already.
		if types.Identical(x.Typ, in.Typ) {
			return x
		}
	case token.EqEq:
		// Invert the inner comparison.
		inv, ok := invertCmp(x.BinOp)
		if !ok {
			return nil
		}
		// Only for integer operands; pointer ordering inversions are fine
		// too since the ordering is total.
		c := in.Block.NewInstr(ir.OpBin, in.Typ, x.Args[0], x.Args[1])
		c.BinOp = inv
		in.Block.InsertBefore(c, in)
		return c
	}
	return nil
}

func isComparison(op token.Kind) bool {
	switch op {
	case token.EqEq, token.NotEq, token.Lt, token.Gt, token.Le, token.Ge:
		return true
	}
	return false
}

func invertCmp(op token.Kind) (token.Kind, bool) {
	switch op {
	case token.EqEq:
		return token.NotEq, true
	case token.NotEq:
		return token.EqEq, true
	case token.Lt:
		return token.Ge, true
	case token.Ge:
		return token.Lt, true
	case token.Gt:
		return token.Le, true
	case token.Le:
		return token.Gt, true
	}
	return op, false
}

// foldPtrCmpSyntactic resolves pointer equality when both operands are
// syntactic address constants (GlobalAddr possibly behind constant GEPs).
func foldPtrCmpSyntactic(in *ir.Instr, o Options) *ir.Instr {
	gx, offx, okx := addrConst(in.Args[0])
	gy, offy, oky := addrConst(in.Args[1])
	nx := in.Args[0].Op == ir.OpNull
	ny := in.Args[1].Op == ir.OpNull
	if (!okx && !nx) || (!oky && !ny) {
		return nil
	}
	boolVal := func(eq bool) *ir.Instr {
		v := int64(0)
		if (in.BinOp == token.EqEq) == eq {
			v = 1
		}
		return constOf(in, v, in.Typ)
	}
	switch {
	case nx && ny:
		return boolVal(true)
	case nx != ny:
		return boolVal(false) // valid addresses are never null
	}
	if !o.FoldPtrCmpNonzeroOffset && (offx != 0 || offy != 0) {
		return nil
	}
	if gx == gy {
		return boolVal(offx == offy)
	}
	return boolVal(false)
}

// addrConst resolves a value to (global, constant offset) when possible.
func addrConst(in *ir.Instr) (*ir.Global, int64, bool) {
	switch in.Op {
	case ir.OpGlobalAddr:
		return in.Global, 0, true
	case ir.OpGEP:
		g, off, ok := addrConst(in.Args[0])
		if !ok {
			return nil, 0, false
		}
		idx, isC := isConst(in.Args[1])
		if !isC {
			return nil, 0, false
		}
		return g, off + idx, true
	}
	return nil, 0, false
}
