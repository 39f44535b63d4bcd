package lower

import (
	"fmt"

	"dcelens/internal/ast"
	"dcelens/internal/ir"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// fnLowerer lowers one function body.
type fnLowerer struct {
	lo   *lowerer
	fn   *ir.Func
	decl *ast.FuncDecl

	entry *ir.Block // holds allocas and parameter spills; jumps to body
	cur   *ir.Block

	vars map[*ast.VarDecl]*ir.Instr // local/param -> alloca

	// break/continue targets, innermost last.
	breaks    []*ir.Block
	continues []*ir.Block
}

func (lo *lowerer) function(d *ast.FuncDecl) error {
	fl := &fnLowerer{
		lo:   lo,
		fn:   lo.funcs[d],
		decl: d,
		vars: map[*ast.VarDecl]*ir.Instr{},
	}
	return fl.run()
}

func (fl *fnLowerer) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(lowerError); ok {
				err = fmt.Errorf("lower: %s: %s", fl.fn.Name, string(le))
				return
			}
			panic(r)
		}
	}()

	fl.entry = fl.fn.NewBlock()
	body := fl.fn.NewBlock()
	fl.cur = body

	// Spill parameters into allocas so that the body can treat them like
	// any other local; mem2reg promotes them back.
	for i, p := range fl.decl.Params {
		a := fl.alloca(p)
		pv := fl.entry.Append(ir.OpParam, p.Typ)
		pv.IntVal = int64(i)
		fl.entry.Append(ir.OpStore, nil, a, pv)
	}

	fl.stmt(fl.decl.Body)

	// Implicit return: falling off the end returns 0 (MiniC definition).
	if fl.cur.Term() == nil {
		fl.emitDefaultReturn()
	}
	// Close any other unterminated blocks the same way (created after
	// returns/breaks for unreachable source tails).
	for _, b := range fl.fn.Blocks {
		if b == fl.entry {
			continue
		}
		if b.Term() == nil {
			saved := fl.cur
			fl.cur = b
			fl.emitDefaultReturn()
			fl.cur = saved
		}
	}
	fl.entry.Append(ir.OpBr, nil).Edges = []*ir.Block{body}

	fl.fn.RecomputePreds()
	return nil
}

type lowerError string

func (fl *fnLowerer) errorf(format string, args ...any) {
	panic(lowerError(fmt.Sprintf(format, args...)))
}

func (fl *fnLowerer) emitDefaultReturn() {
	switch {
	case fl.fn.Ret.Kind == types.Void:
		fl.cur.Append(ir.OpRet, nil)
	case fl.fn.Ret.Kind == types.Pointer:
		n := fl.cur.Append(ir.OpNull, fl.fn.Ret)
		fl.cur.Append(ir.OpRet, nil, n)
	default:
		z := fl.iconst(0, fl.fn.Ret)
		fl.cur.Append(ir.OpRet, nil, z)
	}
}

// alloca creates (in the entry block) the stack slot for d.
func (fl *fnLowerer) alloca(d *ast.VarDecl) *ir.Instr {
	count := 1
	elem := d.Typ
	if d.Typ.Kind == types.Array {
		count = d.Typ.Len
		elem = d.Typ.Elem
	}
	a := fl.entry.NewInstr(ir.OpAlloca, types.PointerTo(elem))
	a.IntVal = int64(count)
	// Allocas go at the head of the entry block, before parameter spills.
	fl.entry.Instrs = append([]*ir.Instr{a}, fl.entry.Instrs...)
	fl.vars[d] = a
	return a
}

func (fl *fnLowerer) iconst(v int64, t *types.Type) *ir.Instr {
	c := fl.cur.Append(ir.OpConst, t)
	c.IntVal = t.WrapValue(v)
	return c
}

// emit appends an instruction to the current block.
func (fl *fnLowerer) emit(op ir.Op, t *types.Type, args ...*ir.Instr) *ir.Instr {
	return fl.cur.Append(op, t, args...)
}

// br terminates the current block with an unconditional jump (if it is not
// already terminated) and makes target the current block.
func (fl *fnLowerer) br(target *ir.Block) {
	if fl.cur.Term() == nil {
		fl.emit(ir.OpBr, nil).Edges = []*ir.Block{target}
	}
	fl.cur = target
}

// jump emits a jump to target and switches to a fresh unreachable block
// (for source code following a return/break/continue).
func (fl *fnLowerer) jumpAndOrphan(target *ir.Block) {
	fl.emit(ir.OpBr, nil).Edges = []*ir.Block{target}
	fl.cur = fl.fn.NewBlock()
}

// condBr branches on v.
func (fl *fnLowerer) condBr(v *ir.Instr, t, f *ir.Block) {
	cb := fl.emit(ir.OpCondBr, nil, v)
	cb.Edges = []*ir.Block{t, f}
}

// ---------------------------------------------------------------------------
// Statements

func (fl *fnLowerer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			fl.stmt(st)
		}
	case *ast.Empty:
	case *ast.DeclStmt:
		fl.declStmt(s.Decl)
	case *ast.ExprStmt:
		fl.expr(s.X)
	case *ast.If:
		fl.ifStmt(s)
	case *ast.While:
		fl.whileStmt(s)
	case *ast.DoWhile:
		fl.doWhileStmt(s)
	case *ast.For:
		fl.forStmt(s)
	case *ast.Return:
		if s.X != nil {
			v := fl.expr(s.X)
			fl.emit(ir.OpRet, nil, v)
		} else {
			fl.emit(ir.OpRet, nil)
		}
		fl.cur = fl.fn.NewBlock() // unreachable continuation
	case *ast.Break:
		if len(fl.breaks) == 0 {
			fl.errorf("break outside loop/switch")
		}
		fl.jumpAndOrphan(fl.breaks[len(fl.breaks)-1])
	case *ast.Continue:
		if len(fl.continues) == 0 {
			fl.errorf("continue outside loop")
		}
		fl.jumpAndOrphan(fl.continues[len(fl.continues)-1])
	case *ast.Switch:
		fl.switchStmt(s)
	default:
		fl.errorf("unknown statement %T", s)
	}
}

func (fl *fnLowerer) declStmt(d *ast.VarDecl) {
	if d.Storage == ast.StorageStatic {
		// Hoisted to a module global; initialization happened at load time.
		return
	}
	a, ok := fl.vars[d]
	if !ok {
		a = fl.alloca(d)
	}
	// Initialize at the declaration point: MiniC defines locals to start
	// from zero, and a declaration inside a loop re-initializes on every
	// iteration (matching the interpreter's fresh-object semantics).
	if arr, ok := d.Init.(*ast.ArrayInit); ok {
		for i := 0; i < d.Typ.Len; i++ {
			idx := fl.iconst(int64(i), types.I64Type)
			slot := fl.emit(ir.OpGEP, a.Typ, a, idx)
			var v *ir.Instr
			if i < len(arr.Elems) {
				v = fl.expr(arr.Elems[i])
			} else {
				v = fl.zeroValue(d.Typ.Elem)
			}
			fl.emit(ir.OpStore, nil, slot, v)
		}
		return
	}
	var v *ir.Instr
	if d.Init != nil {
		v = fl.expr(d.Init)
	} else if d.Typ.Kind == types.Array {
		// Uninitialized array: zero every slot.
		for i := 0; i < d.Typ.Len; i++ {
			idx := fl.iconst(int64(i), types.I64Type)
			slot := fl.emit(ir.OpGEP, a.Typ, a, idx)
			fl.emit(ir.OpStore, nil, slot, fl.zeroValue(d.Typ.Elem))
		}
		return
	} else {
		v = fl.zeroValue(d.Typ)
	}
	fl.emit(ir.OpStore, nil, a, v)
}

func (fl *fnLowerer) zeroValue(t *types.Type) *ir.Instr {
	if t.Kind == types.Pointer {
		return fl.emit(ir.OpNull, t)
	}
	return fl.iconst(0, t)
}

func (fl *fnLowerer) ifStmt(s *ast.If) {
	// Literal conditions are lowered as condbr-on-constant rather than
	// folded here: every schedule (including -O0, where real C frontends
	// fold and compilers still eliminate ~15% of dead blocks) opens with
	// instcombine+simplifycfg, which folds them. Keeping the fold in the
	// pipeline lets the trace attribute these eliminations to a pass.
	thenB := fl.fn.NewBlock()
	joinB := fl.fn.NewBlock()
	elseB := joinB
	if s.Else != nil {
		elseB = fl.fn.NewBlock()
	}
	fl.condBranch(s.Cond, thenB, elseB)
	fl.cur = thenB
	fl.stmt(s.Then)
	fl.br(joinB)
	if s.Else != nil {
		fl.cur = elseB
		fl.stmt(s.Else)
		fl.br(joinB)
	}
	fl.cur = joinB
}

func (fl *fnLowerer) whileStmt(s *ast.While) {
	header := fl.fn.NewBlock()
	body := fl.fn.NewBlock()
	exit := fl.fn.NewBlock()
	fl.br(header)
	fl.condBranch(s.Cond, body, exit)
	fl.cur = body
	fl.breaks = append(fl.breaks, exit)
	fl.continues = append(fl.continues, header)
	fl.stmt(s.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.continues = fl.continues[:len(fl.continues)-1]
	fl.br(header)
	fl.cur = exit
}

func (fl *fnLowerer) doWhileStmt(s *ast.DoWhile) {
	body := fl.fn.NewBlock()
	latch := fl.fn.NewBlock()
	exit := fl.fn.NewBlock()
	fl.br(body)
	fl.breaks = append(fl.breaks, exit)
	fl.continues = append(fl.continues, latch)
	fl.stmt(s.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.continues = fl.continues[:len(fl.continues)-1]
	fl.br(latch)
	fl.condBranch(s.Cond, body, exit)
	fl.cur = exit
}

func (fl *fnLowerer) forStmt(s *ast.For) {
	if s.Init != nil {
		fl.stmt(s.Init)
	}
	header := fl.fn.NewBlock()
	body := fl.fn.NewBlock()
	latch := fl.fn.NewBlock()
	exit := fl.fn.NewBlock()
	fl.br(header)
	if s.Cond == nil {
		fl.br(body)
	} else {
		fl.condBranch(s.Cond, body, exit)
		fl.cur = body
	}
	fl.breaks = append(fl.breaks, exit)
	fl.continues = append(fl.continues, latch)
	fl.stmt(s.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.continues = fl.continues[:len(fl.continues)-1]
	fl.br(latch)
	if s.Post != nil {
		fl.expr(s.Post)
	}
	fl.br(header)
	fl.cur = exit
}

// switchStmt lowers to a chain of equality tests jumping into the case
// bodies; bodies are chained for C fallthrough.
func (fl *fnLowerer) switchStmt(s *ast.Switch) {
	tag := fl.expr(s.Tag)
	exit := fl.fn.NewBlock()

	bodies := make([]*ir.Block, len(s.Cases))
	for i := range s.Cases {
		bodies[i] = fl.fn.NewBlock()
	}

	// Dispatch chain.
	var defaultBody *ir.Block = exit
	for i, c := range s.Cases {
		if c.IsDefault {
			defaultBody = bodies[i]
		}
	}
	for i, c := range s.Cases {
		for _, lbl := range c.Vals {
			v := fl.expr(lbl)
			cmp := fl.emit(ir.OpBin, types.I32Type, tag, v)
			cmp.BinOp = token.EqEq
			next := fl.fn.NewBlock()
			fl.condBr(cmp, bodies[i], next)
			fl.cur = next
		}
	}
	fl.br(defaultBody)
	if defaultBody == exit {
		fl.cur = fl.fn.NewBlock() // bodies are emitted below
	}

	// Case bodies with fallthrough.
	fl.breaks = append(fl.breaks, exit)
	for i, c := range s.Cases {
		fl.cur = bodies[i]
		for _, st := range c.Body {
			fl.stmt(st)
		}
		if i+1 < len(s.Cases) {
			fl.br(bodies[i+1])
		} else {
			fl.br(exit)
		}
	}
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.cur = exit
}

// ---------------------------------------------------------------------------
// Conditions

// condBranch lowers a condition with short-circuit control flow, branching
// to t when true and f when false, and leaves fl.cur on the true block.
func (fl *fnLowerer) condBranch(e ast.Expr, t, f *ir.Block) {
	switch e := e.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.AndAnd:
			mid := fl.fn.NewBlock()
			fl.condBranch(e.X, mid, f)
			fl.cur = mid
			fl.condBranch(e.Y, t, f)
			fl.cur = t
			return
		case token.OrOr:
			mid := fl.fn.NewBlock()
			fl.condBranch(e.X, t, mid)
			fl.cur = mid
			fl.condBranch(e.Y, t, f)
			fl.cur = t
			return
		}
	case *ast.Unary:
		if e.Op == token.Not {
			fl.condBranch(e.X, f, t)
			fl.cur = t
			return
		}
	}
	v := fl.expr(e)
	fl.condBr(v, t, f)
	fl.cur = t
}
