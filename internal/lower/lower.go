// Package lower translates checked MiniC ASTs into the SSA IR.
//
// Lowering produces memory-form IR: every variable lives in an alloca (or a
// module global) accessed with loads and stores; the mem2reg pass later
// promotes the scalars. The only phis lowering creates are the joins of
// short-circuit operators and the ?: operator. Unary operators are
// normalized away (-x → 0-x, ~x → x^-1, !x → x==0). Literal-constant
// conditions are lowered as branches on constants and left for the
// pipeline: every schedule, including -O0, opens with the trivial folding
// real C frontends perform (the paper measures GCC eliminating 14.79% of
// dead blocks at -O0 for exactly this reason), and running it as a pass
// lets the elimination trace attribute those kills to a pass instance.
package lower

import (
	"fmt"

	"dcelens/internal/ast"
	"dcelens/internal/ir"
	"dcelens/internal/sema"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// Lower translates a sema-checked program into an IR module.
func Lower(prog *ast.Program) (*ir.Module, error) {
	lo := &lowerer{
		mod:     &ir.Module{},
		globals: map[*ast.VarDecl]*ir.Global{},
		funcs:   map[*ast.FuncDecl]*ir.Func{},
	}
	if err := lo.run(prog); err != nil {
		return nil, err
	}
	return lo.mod, nil
}

type lowerer struct {
	mod     *ir.Module
	globals map[*ast.VarDecl]*ir.Global
	funcs   map[*ast.FuncDecl]*ir.Func
	statics int // counter for hoisted static locals
}

func (lo *lowerer) run(prog *ast.Program) error {
	// Globals first (address-constant initializers may reference any
	// global, so create shells first, then fill initializers).
	for _, d := range prog.Globals() {
		if d.Storage == ast.StorageExtern {
			continue
		}
		lo.globals[d] = lo.newGlobal(d)
	}
	for _, d := range prog.Globals() {
		g := lo.globals[d]
		if g == nil || d.Init == nil {
			continue
		}
		init, err := lo.constInit(d.Init, d.Typ)
		if err != nil {
			return err
		}
		g.Init = init
	}

	// Hoist static locals into module globals before lowering bodies.
	for _, f := range prog.Funcs() {
		if f.Body == nil {
			continue
		}
		var err error
		ast.Inspect(f.Body, func(n ast.Node) bool {
			ds, ok := n.(*ast.DeclStmt)
			if !ok || ds.Decl.Storage != ast.StorageStatic || err != nil {
				return true
			}
			lo.statics++
			g := lo.newGlobal(ds.Decl)
			g.Name = fmt.Sprintf("%s.%s.%d", f.Name, ds.Decl.Name, lo.statics)
			g.Internal = true
			if ds.Decl.Init != nil {
				g.Init, err = lo.constInit(ds.Decl.Init, ds.Decl.Typ)
			}
			lo.globals[ds.Decl] = g
			return true
		})
		if err != nil {
			return err
		}
	}

	// Function shells, then bodies (calls may reference any function).
	for _, f := range prog.Funcs() {
		fn := &ir.Func{
			Name:     f.Name,
			Ret:      f.Ret,
			Internal: f.Storage == ast.StorageStatic,
			External: f.Body == nil,
		}
		for _, p := range f.Params {
			fn.ParamTys = append(fn.ParamTys, p.Typ)
		}
		lo.funcs[f] = fn
		lo.mod.Funcs = append(lo.mod.Funcs, fn)
	}
	for _, f := range prog.Funcs() {
		if f.Body == nil {
			continue
		}
		if err := lo.function(f); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) newGlobal(d *ast.VarDecl) *ir.Global {
	g := &ir.Global{
		Name:     d.Name,
		Internal: d.Storage == ast.StorageStatic,
	}
	if d.Typ.Kind == types.Array {
		g.Elem = d.Typ.Elem
		g.Len = d.Typ.Len
	} else {
		g.Elem = d.Typ
		g.Len = 1
	}
	lo.mod.Globals = append(lo.mod.Globals, g)
	return g
}

// constInit evaluates a constant initializer into IR constants.
func (lo *lowerer) constInit(init ast.Expr, typ *types.Type) ([]ir.Const, error) {
	if arr, ok := init.(*ast.ArrayInit); ok {
		out := make([]ir.Const, len(arr.Elems))
		for i, e := range arr.Elems {
			c, err := lo.constVal(e)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	c, err := lo.constVal(init)
	if err != nil {
		return nil, err
	}
	return []ir.Const{c}, nil
}

func (lo *lowerer) constVal(e ast.Expr) (ir.Const, error) {
	if v, ok := sema.ConstEval(e); ok {
		return ir.Const{Int: v}, nil
	}
	switch e := e.(type) {
	case *ast.Cast:
		if ref, ok := e.X.(*ast.VarRef); ok && e.To.Kind == types.Pointer {
			if g := lo.globals[ref.Obj]; g != nil {
				return ir.Const{Global: g, IsAddr: true}, nil
			}
		}
		c, err := lo.constVal(e.X)
		if err != nil {
			return ir.Const{}, err
		}
		if !c.IsAddr && e.To.IsInteger() {
			c.Int = e.To.WrapValue(c.Int)
		}
		return c, nil
	case *ast.Unary:
		if e.Op == token.Amp {
			switch x := e.X.(type) {
			case *ast.VarRef:
				if g := lo.globals[x.Obj]; g != nil {
					return ir.Const{Global: g, IsAddr: true}, nil
				}
			case *ast.Index:
				base, ok := x.Base.(*ast.VarRef)
				if !ok {
					break
				}
				g := lo.globals[base.Obj]
				idx, okI := sema.ConstEval(x.Idx)
				if g != nil && okI {
					return ir.Const{Global: g, Off: idx, IsAddr: true}, nil
				}
			}
		}
	case *ast.VarRef:
		if g := lo.globals[e.Obj]; g != nil && e.Obj.Typ.Kind == types.Array {
			return ir.Const{Global: g, IsAddr: true}, nil
		}
	}
	return ir.Const{}, fmt.Errorf("lower: unsupported constant initializer %q", ast.PrintExpr(e))
}
