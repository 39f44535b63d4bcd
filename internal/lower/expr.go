package lower

import (
	"dcelens/internal/ast"
	"dcelens/internal/ir"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// expr lowers an expression to an SSA value in the current block.
func (fl *fnLowerer) expr(e ast.Expr) *ir.Instr {
	switch e := e.(type) {
	case *ast.IntLit:
		return fl.iconst(e.Val, e.Typ)

	case *ast.VarRef:
		if e.Obj.Typ.Kind == types.Array {
			return fl.addr(e) // decay context: the array's base address
		}
		return fl.emit(ir.OpLoad, e.Obj.Typ, fl.addr(e))

	case *ast.Cast:
		if e.To.Kind == types.Pointer {
			return fl.expr(e.X) // array decay: inner lowering yields the address
		}
		return fl.castTo(fl.expr(e.X), e.To)

	case *ast.Unary:
		return fl.unary(e)

	case *ast.Binary:
		return fl.binary(e)

	case *ast.Assign:
		return fl.assign(e)

	case *ast.IncDec:
		return fl.incDec(e)

	case *ast.Cond:
		return fl.ternary(e)

	case *ast.Call:
		callee := fl.lo.funcs[e.Fn]
		if callee == nil {
			fl.errorf("call to unlowered function %q", e.Name)
		}
		args := make([]*ir.Instr, len(e.Args))
		for i, a := range e.Args {
			args[i] = fl.expr(a)
		}
		var rt *types.Type
		if e.Fn.Ret.Kind != types.Void {
			rt = e.Fn.Ret
		}
		c := fl.emit(ir.OpCall, rt, args...)
		c.Callee = callee
		return c

	case *ast.Index:
		return fl.emit(ir.OpLoad, e.Typ, fl.addr(e))

	default:
		fl.errorf("unknown expression %T", e)
		return nil
	}
}

// castTo inserts an integer conversion when needed.
func (fl *fnLowerer) castTo(v *ir.Instr, to *types.Type) *ir.Instr {
	if types.Identical(v.Typ, to) {
		return v
	}
	return fl.emit(ir.OpCast, to, v)
}

// addr lowers an lvalue (or decaying array) to its address.
func (fl *fnLowerer) addr(e ast.Expr) *ir.Instr {
	switch e := e.(type) {
	case *ast.VarRef:
		if g := fl.lo.globals[e.Obj]; g != nil {
			ga := fl.emit(ir.OpGlobalAddr, types.PointerTo(g.Elem))
			ga.Global = g
			return ga
		}
		if a, ok := fl.vars[e.Obj]; ok {
			return a
		}
		// Reference to a local whose declaration statement has not executed
		// (possible only in dead code); allocate its slot now.
		return fl.alloca(e.Obj)

	case *ast.Index:
		idx := fl.expr(e.Idx) // sema converted to i64
		bt := e.Base.Type()
		var base *ir.Instr
		if bt.Kind == types.Array {
			ref, ok := e.Base.(*ast.VarRef)
			if !ok {
				fl.errorf("unsupported array base %T", e.Base)
			}
			base = fl.addr(ref)
		} else {
			base = fl.expr(e.Base)
		}
		return fl.emit(ir.OpGEP, base.Typ, base, idx)

	case *ast.Unary:
		if e.Op == token.Star {
			return fl.expr(e.X)
		}
	}
	fl.errorf("expression %T is not an lvalue", e)
	return nil
}

func (fl *fnLowerer) unary(e *ast.Unary) *ir.Instr {
	switch e.Op {
	case token.Amp:
		return fl.addr(e.X)
	case token.Star:
		p := fl.expr(e.X)
		return fl.emit(ir.OpLoad, e.Typ, p)
	case token.Minus:
		// -x → 0 - x
		x := fl.expr(e.X)
		z := fl.iconst(0, e.Typ)
		b := fl.emit(ir.OpBin, e.Typ, z, x)
		b.BinOp = token.Minus
		return b
	case token.Tilde:
		// ~x → x ^ -1
		x := fl.expr(e.X)
		m := fl.iconst(-1, e.Typ)
		b := fl.emit(ir.OpBin, e.Typ, x, m)
		b.BinOp = token.Caret
		return b
	case token.Not:
		// !x → x == 0 (or p == null)
		x := fl.expr(e.X)
		var z *ir.Instr
		if x.Typ.Kind == types.Pointer {
			z = fl.emit(ir.OpNull, x.Typ)
		} else {
			z = fl.iconst(0, x.Typ)
		}
		b := fl.emit(ir.OpBin, types.I32Type, x, z)
		b.BinOp = token.EqEq
		return b
	}
	fl.errorf("unknown unary %v", e.Op)
	return nil
}

func (fl *fnLowerer) binary(e *ast.Binary) *ir.Instr {
	switch e.Op {
	case token.AndAnd, token.OrOr:
		return fl.boolValue(e)
	case token.Plus, token.Minus:
		if e.X.Type() != nil && e.X.Type().Kind == types.Pointer {
			// Pointer arithmetic (sema normalized to ptr op int64).
			p := fl.expr(e.X)
			idx := fl.expr(e.Y)
			if e.Op == token.Minus {
				z := fl.iconst(0, types.I64Type)
				neg := fl.emit(ir.OpBin, types.I64Type, z, idx)
				neg.BinOp = token.Minus
				idx = neg
			}
			return fl.emit(ir.OpGEP, p.Typ, p, idx)
		}
	}
	x := fl.expr(e.X)
	y := fl.expr(e.Y)
	b := fl.emit(ir.OpBin, e.Typ, x, y)
	b.BinOp = e.Op
	return b
}

// boolValue materializes a short-circuit expression as a 0/1 value using
// control flow and a phi — exactly how Clang and GCC lower these.
func (fl *fnLowerer) boolValue(e ast.Expr) *ir.Instr {
	tB := fl.fn.NewBlock()
	fB := fl.fn.NewBlock()
	join := fl.fn.NewBlock()
	fl.condBranch(e, tB, fB)

	fl.cur = tB
	one := fl.iconst(1, types.I32Type)
	fl.emit(ir.OpBr, nil).Edges = []*ir.Block{join}

	fl.cur = fB
	zero := fl.iconst(0, types.I32Type)
	fl.emit(ir.OpBr, nil).Edges = []*ir.Block{join}

	fl.cur = join
	phi := fl.emit(ir.OpPhi, types.I32Type, one, zero)
	phi.Edges = []*ir.Block{tB, fB}
	return phi
}

func (fl *fnLowerer) ternary(e *ast.Cond) *ir.Instr {
	tB := fl.fn.NewBlock()
	fB := fl.fn.NewBlock()
	join := fl.fn.NewBlock()
	fl.condBranch(e.CondX, tB, fB)

	fl.cur = tB
	tv := fl.expr(e.Then)
	tEnd := fl.cur
	fl.emit(ir.OpBr, nil).Edges = []*ir.Block{join}

	fl.cur = fB
	fv := fl.expr(e.Else)
	fEnd := fl.cur
	fl.emit(ir.OpBr, nil).Edges = []*ir.Block{join}

	fl.cur = join
	if e.Typ.Kind == types.Void {
		return nil
	}
	phi := fl.emit(ir.OpPhi, e.Typ, tv, fv)
	phi.Edges = []*ir.Block{tEnd, fEnd}
	return phi
}

func (fl *fnLowerer) assign(e *ast.Assign) *ir.Instr {
	a := fl.addr(e.LHS)
	if e.Op == token.Assign {
		v := fl.expr(e.RHS)
		fl.emit(ir.OpStore, nil, a, v)
		return v
	}
	// MiniC defines the order of a compound assignment as: resolve the
	// target address, evaluate the right-hand side, THEN load the old
	// value. The load must come after the RHS because the RHS may call a
	// function that writes the target (the reference interpreter uses the
	// same order; C leaves it unsequenced, MiniC pins it down).
	lt := e.LHS.Type()
	rhs := fl.expr(e.RHS)
	old := fl.emit(ir.OpLoad, lt, a)
	base := e.Op.BaseOf()

	var result *ir.Instr
	switch {
	case lt.Kind == types.Pointer:
		idx := rhs
		if base == token.Minus {
			z := fl.iconst(0, types.I64Type)
			neg := fl.emit(ir.OpBin, types.I64Type, z, idx)
			neg.BinOp = token.Minus
			idx = neg
		}
		result = fl.emit(ir.OpGEP, lt, old, idx)
	case base == token.Shl || base == token.Shr:
		opL := types.PromoteOne(lt)
		lv := fl.castTo(old, opL)
		b := fl.emit(ir.OpBin, opL, lv, rhs)
		b.BinOp = base
		result = fl.castTo(b, lt)
	default:
		opT := types.Promote(lt, e.RHS.Type())
		lv := fl.castTo(old, opT)
		rv := fl.castTo(rhs, opT)
		b := fl.emit(ir.OpBin, opT, lv, rv)
		b.BinOp = base
		result = fl.castTo(b, lt)
	}
	fl.emit(ir.OpStore, nil, a, result)
	return result
}

func (fl *fnLowerer) incDec(e *ast.IncDec) *ir.Instr {
	a := fl.addr(e.X)
	t := e.X.Type()
	old := fl.emit(ir.OpLoad, t, a)
	var next *ir.Instr
	if t.Kind == types.Pointer {
		d := int64(1)
		if e.Op == token.MinusMinus {
			d = -1
		}
		idx := fl.iconst(d, types.I64Type)
		next = fl.emit(ir.OpGEP, t, old, idx)
	} else {
		one := fl.iconst(1, t)
		next = fl.emit(ir.OpBin, t, old, one)
		if e.Op == token.PlusPlus {
			next.BinOp = token.Plus
		} else {
			next.BinOp = token.Minus
		}
	}
	fl.emit(ir.OpStore, nil, a, next)
	if e.Prefix {
		return next
	}
	return old
}
