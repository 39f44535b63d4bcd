package ir

import (
	"errors"
	"fmt"

	"dcelens/internal/interp"
	"dcelens/internal/sema"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// ErrExecFuel is returned when IR execution exceeds its step budget.
var ErrExecFuel = errors.New("ir: execution fuel exhausted")

// ExecError is a runtime error during IR execution. With valid MiniC input
// and correct passes it indicates a compiler bug, so the message carries the
// offending instruction.
type ExecError struct {
	Fn  string
	In  *Instr
	Msg string
}

func (e *ExecError) Error() string {
	if e.In != nil {
		return fmt.Sprintf("ir exec: %s: %s (at %s)", e.Fn, e.Msg, e.In)
	}
	return fmt.Sprintf("ir exec: %s: %s", e.Fn, e.Msg)
}

// ExecResult mirrors interp.Result for the IR level: exit code, the
// Csmith-style checksum over integer-typed globals, and the set of executed
// external calls (the alive markers as the compiled artifact sees them).
type ExecResult struct {
	ExitCode    int64
	Checksum    uint64
	ExternCalls map[string]int
	Steps       int64
	// GlobalInts holds the final values of integer-typed globals by name —
	// the exact state the checksum hashes. Useful for debugging and for
	// pinpointing which global diverged when checksums differ.
	GlobalInts map[string][]int64
}

// Executed reports whether the external function name was called.
func (r *ExecResult) Executed(name string) bool { return r.ExternCalls[name] > 0 }

// ExecOptions configures IR execution.
type ExecOptions struct {
	Fuel         int64
	MaxCallDepth int
}

// Execute runs the module's main function and returns the observable
// results. The checksum is computed identically to the AST interpreter's
// (integer-typed globals in declaration order), so "optimization preserved
// semantics" is checked by comparing the two.
func Execute(m *Module, opts ExecOptions) (*ExecResult, error) {
	if opts.Fuel <= 0 {
		opts.Fuel = interp.DefaultFuel
	}
	if opts.MaxCallDepth <= 0 {
		opts.MaxCallDepth = interp.DefaultMaxCallDepth
	}
	ex := &executor{
		mod:      m,
		fuel:     opts.Fuel,
		maxDepth: opts.MaxCallDepth,
		globals:  map[*Global]*memObj{},
		result:   &ExecResult{ExternCalls: map[string]int{}},
	}
	ex.initGlobals()
	mainFn := m.LookupFunc("main")
	if mainFn == nil || mainFn.External {
		return nil, &ExecError{Msg: "module has no main"}
	}
	ret, err := ex.call(mainFn, nil)
	if err != nil {
		return nil, err
	}
	ex.result.ExitCode = ret.Int
	ex.result.Checksum = ex.checksum()
	ex.result.Steps = opts.Fuel - ex.fuel
	ex.result.GlobalInts = map[string][]int64{}
	for _, g := range m.Globals {
		if g.Elem.Kind == types.Pointer {
			continue
		}
		o := ex.globals[g]
		vals := make([]int64, len(o.vals))
		for i, v := range o.vals {
			vals[i] = v.Int
		}
		ex.result.GlobalInts[g.Name] = vals
	}
	return ex.result, nil
}

// ---------------------------------------------------------------------------

type memObj struct {
	vals []execVal
	id   int64
	dead bool
}

type execVal struct {
	Int   int64
	Obj   *memObj
	Off   int64
	IsPtr bool
}

func eInt(v int64) execVal              { return execVal{Int: v} }
func ePtr(o *memObj, off int64) execVal { return execVal{Obj: o, Off: off, IsPtr: true} }

func (v execVal) truthy() bool {
	if v.IsPtr {
		return v.Obj != nil
	}
	return v.Int != 0
}

type executor struct {
	mod      *Module
	fuel     int64
	maxDepth int
	depth    int
	nextID   int64
	globals  map[*Global]*memObj
	result   *ExecResult
}

func (ex *executor) newObj(n int) *memObj {
	o := &memObj{vals: make([]execVal, n), id: ex.nextID}
	ex.nextID++
	return o
}

func (ex *executor) initGlobals() {
	for _, g := range ex.mod.Globals {
		o := ex.newObj(g.Len)
		if g.Elem.Kind == types.Pointer {
			for i := range o.vals {
				o.vals[i] = execVal{IsPtr: true}
			}
		}
		ex.globals[g] = o
	}
	// Second phase: initializers may reference other globals' addresses.
	for _, g := range ex.mod.Globals {
		o := ex.globals[g]
		for i, c := range g.Init {
			if i >= len(o.vals) {
				break
			}
			if c.IsAddr {
				if c.Global == nil {
					o.vals[i] = execVal{IsPtr: true}
				} else {
					o.vals[i] = ePtr(ex.globals[c.Global], c.Off)
				}
			} else if g.Elem.Kind != types.Pointer {
				o.vals[i] = eInt(c.Int)
			}
		}
	}
}

func (ex *executor) checksum() uint64 {
	var vals []int64
	for _, g := range ex.mod.Globals {
		if g.Elem.Kind == types.Pointer {
			continue
		}
		o := ex.globals[g]
		for _, v := range o.vals {
			vals = append(vals, v.Int)
		}
	}
	return interp.Checksum(vals)
}

// call executes one function activation.
func (ex *executor) call(f *Func, args []execVal) (execVal, error) {
	if f.External {
		ex.result.ExternCalls[f.Name]++
		if f.Ret != nil && f.Ret.Kind == types.Pointer {
			return execVal{IsPtr: true}, nil
		}
		return eInt(0), nil
	}
	ex.depth++
	if ex.depth > ex.maxDepth {
		return execVal{}, &ExecError{Fn: f.Name, Msg: "call depth exceeded"}
	}
	defer func() { ex.depth-- }()

	vals := make([]execVal, f.NumValues())
	var allocas []*memObj
	defer func() {
		for _, o := range allocas {
			o.dead = true
		}
	}()

	cur := f.Entry()
	var prev *Block
	for {
		ex.fuel--
		if ex.fuel <= 0 {
			return execVal{}, ErrExecFuel
		}
		// Phase 1: evaluate all phis of the block against prev
		// simultaneously (classic parallel-copy semantics).
		var phiVals []execVal
		nphi := 0
		for _, in := range cur.Instrs {
			if in.Op != OpPhi {
				break
			}
			nphi++
			found := false
			for i, pb := range in.Edges {
				if pb == prev {
					phiVals = append(phiVals, vals[in.Args[i].ID])
					found = true
					break
				}
			}
			if !found {
				return execVal{}, &ExecError{Fn: f.Name, In: in, Msg: "phi has no entry for predecessor"}
			}
		}
		for i := 0; i < nphi; i++ {
			vals[cur.Instrs[i].ID] = phiVals[i]
		}

		advanced := false
		for _, in := range cur.Instrs[nphi:] {
			ex.fuel--
			if ex.fuel <= 0 {
				return execVal{}, ErrExecFuel
			}
			switch in.Op {
			case OpConst:
				vals[in.ID] = eInt(in.IntVal)
			case OpNull:
				vals[in.ID] = execVal{IsPtr: true}
			case OpGlobalAddr:
				vals[in.ID] = ePtr(ex.globals[in.Global], 0)
			case OpParam:
				vals[in.ID] = args[in.IntVal]
			case OpAlloca:
				o := ex.newObj(int(in.IntVal))
				if in.Typ.Elem.Kind == types.Pointer {
					for i := range o.vals {
						o.vals[i] = execVal{IsPtr: true}
					}
				}
				allocas = append(allocas, o)
				vals[in.ID] = ePtr(o, 0)
			case OpBin:
				v, err := ex.bin(f, in, vals[in.Args[0].ID], vals[in.Args[1].ID])
				if err != nil {
					return execVal{}, err
				}
				vals[in.ID] = v
			case OpCast:
				vals[in.ID] = eInt(in.Typ.WrapValue(vals[in.Args[0].ID].Int))
			case OpGEP:
				p := vals[in.Args[0].ID]
				if !p.IsPtr || p.Obj == nil {
					return execVal{}, &ExecError{Fn: f.Name, In: in, Msg: "gep on null pointer"}
				}
				vals[in.ID] = ePtr(p.Obj, p.Off+vals[in.Args[1].ID].Int)
			case OpSelect:
				if vals[in.Args[0].ID].truthy() {
					vals[in.ID] = vals[in.Args[1].ID]
				} else {
					vals[in.ID] = vals[in.Args[2].ID]
				}
			case OpFreeze:
				vals[in.ID] = vals[in.Args[0].ID]
			case OpLoad:
				p := vals[in.Args[0].ID]
				v, err := ex.access(f, in, p)
				if err != nil {
					return execVal{}, err
				}
				vals[in.ID] = *v
			case OpStore:
				p := vals[in.Args[0].ID]
				slot, err := ex.access(f, in, p)
				if err != nil {
					return execVal{}, err
				}
				*slot = vals[in.Args[1].ID]
			case OpCall:
				cargs := make([]execVal, len(in.Args))
				for i, a := range in.Args {
					cargs[i] = vals[a.ID]
				}
				v, err := ex.call(in.Callee, cargs)
				if err != nil {
					return execVal{}, err
				}
				if in.Typ != nil {
					vals[in.ID] = v
				}
			case OpRet:
				if len(in.Args) > 0 {
					return vals[in.Args[0].ID], nil
				}
				return eInt(0), nil
			case OpBr:
				prev, cur = cur, in.Edges[0]
				advanced = true
			case OpCondBr:
				if vals[in.Args[0].ID].truthy() {
					prev, cur = cur, in.Edges[0]
				} else {
					prev, cur = cur, in.Edges[1]
				}
				advanced = true
			default:
				return execVal{}, &ExecError{Fn: f.Name, In: in, Msg: "unknown op"}
			}
			if advanced {
				break
			}
		}
		if !advanced {
			return execVal{}, &ExecError{Fn: f.Name, Msg: fmt.Sprintf("block b%d fell through", cur.ID)}
		}
	}
}

func (ex *executor) access(f *Func, in *Instr, p execVal) (*execVal, error) {
	if !p.IsPtr || p.Obj == nil {
		return nil, &ExecError{Fn: f.Name, In: in, Msg: "null pointer access"}
	}
	if p.Obj.dead {
		return nil, &ExecError{Fn: f.Name, In: in, Msg: "dangling pointer access"}
	}
	if p.Off < 0 || p.Off >= int64(len(p.Obj.vals)) {
		return nil, &ExecError{Fn: f.Name, In: in, Msg: fmt.Sprintf("out-of-bounds access at %d of %d", p.Off, len(p.Obj.vals))}
	}
	return &p.Obj.vals[p.Off], nil
}

func (ex *executor) bin(f *Func, in *Instr, x, y execVal) (execVal, error) {
	if x.IsPtr || y.IsPtr {
		return ex.ptrBin(f, in, x, y)
	}
	opTy := in.Args[0].Typ
	v, ok := sema.EvalBinop(in.BinOp, x.Int, y.Int, opTy, in.Typ)
	if !ok {
		return execVal{}, &ExecError{Fn: f.Name, In: in, Msg: "unsupported binop"}
	}
	return eInt(v), nil
}

func (ex *executor) ptrBin(f *Func, in *Instr, x, y execVal) (execVal, error) {
	b := func(c bool) execVal {
		if c {
			return eInt(1)
		}
		return eInt(0)
	}
	key := func(v execVal) (int64, int64) {
		if v.Obj == nil {
			return -1, 0
		}
		return v.Obj.id, v.Off
	}
	eq := x.IsPtr == y.IsPtr && x.Obj == y.Obj && x.Off == y.Off
	switch in.BinOp {
	case token.EqEq:
		return b(eq), nil
	case token.NotEq:
		return b(!eq), nil
	case token.Lt, token.Gt, token.Le, token.Ge:
		xi, xo := key(x)
		yi, yo := key(y)
		less := xi < yi || (xi == yi && xo < yo)
		switch in.BinOp {
		case token.Lt:
			return b(less), nil
		case token.Gt:
			return b(!less && !eq), nil
		case token.Le:
			return b(less || eq), nil
		case token.Ge:
			return b(!less), nil
		}
	}
	return execVal{}, &ExecError{Fn: f.Name, In: in, Msg: "unsupported pointer binop"}
}
