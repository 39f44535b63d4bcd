package ir

import (
	"fmt"

	"dcelens/internal/pool"
	"dcelens/internal/types"
)

// Clone returns a deep copy of the module: every global, function, block
// and instruction is a new object, and the copy shares nothing mutable
// with m (types are immutable and stay shared).
//
// The copy is exact, not merely equivalent. It keeps every ID, each
// function's next block and value IDs and mutation generation, WasInlined
// and the escape flags, and the length, capacity and nil-ness of every IR
// slice. Capacity matters: a pass that ranges over a block's instructions
// while inserting into it (instcombine) revisits a shifted instruction or
// not depending on spare capacity, so a trimmed copy could optimize, and
// number values, differently from its original.
//
// Each object is allocated on its own, as the lowerer and the passes
// allocate them, so a deleted instruction of the copy is garbage as soon
// as nothing references it.
//
// Clone panics when a function's body references a block or value that
// is not in it, or lists one twice, or anything references a global or
// function outside the module: states no pass leaves.
func (m *Module) Clone() *Module {
	globals := make(map[*Global]*Global, len(m.Globals))
	funcs := make(map[*Func]*Func, len(m.Funcs))
	out := &Module{
		Globals: cloneSlice(m.Globals, func(g *Global) *Global {
			ng := *g
			globals[g] = &ng
			return &ng
		}),
		Funcs: cloneSlice(m.Funcs, func(f *Func) *Func {
			nf := *f
			nf.ParamTys = cloneSlice(f.ParamTys, func(t *types.Type) *types.Type { return t })
			funcs[f] = &nf
			return &nf
		}),
	}
	for _, g := range out.Globals {
		g.Init = cloneSlice(g.Init, func(k Const) Const {
			k.Global = remap(globals, k.Global)
			return k
		})
	}
	c := clonerPool.Get()
	c.globals, c.funcs = globals, funcs
	for i, f := range m.Funcs {
		c.clone(f, out.Funcs[i])
	}
	c.blocks, c.instrs = truncate(c.blocks), truncate(c.instrs)
	c.globals, c.funcs, c.f = nil, nil, nil
	clonerPool.Put(c)
	return out
}

// cloneSlice copies s element-wise through fn, keeping its length,
// capacity and nil-ness.
func cloneSlice[T any](s []T, fn func(T) T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s), cap(s))
	for i, x := range s {
		out[i] = fn(x)
	}
	return out
}

// bodyCloner copies function bodies. It finds the copy of a block or
// value in a table indexed by its ID, whose slots also hold the original,
// so that an object of another function with a colliding ID is never
// taken for the one the slot holds. Every compile trie fork clones a
// module, so the tables are recycled through clonerPool; as the
// verifier's are, each is zero beyond its length, and a cloner back in
// its pool holds no object of either module.
type bodyCloner struct {
	globals map[*Global]*Global
	funcs   map[*Func]*Func
	f       *Func
	blocks  []blockPair // by Block.ID
	instrs  []instrPair // by Instr.ID
}

type (
	blockPair struct{ old, new *Block }
	instrPair struct{ old, new *Instr }
)

var clonerPool = pool.Pool[bodyCloner]{New: func() *bodyCloner { return new(bodyCloner) }}

// clone copies f's body into nf: every object first, then every
// reference through the tables.
func (c *bodyCloner) clone(f, nf *Func) {
	nb, nv := f.nextBlockID, f.nextValueID
	for _, b := range f.Blocks {
		nb = max(nb, b.ID+1)
		for _, in := range b.Instrs {
			nv = max(nv, int(in.ID)+1)
		}
	}
	c.f = f
	c.blocks = resize(c.blocks, nb)
	c.instrs = resize(c.instrs, nv)
	nf.Blocks = cloneSlice(f.Blocks, func(b *Block) *Block {
		if c.blocks[b.ID].old != nil {
			panic(fmt.Sprintf("ir: Clone: @%s lists b%d twice", f.Name, b.ID))
		}
		cb := &Block{ID: b.ID, Func: nf}
		c.blocks[b.ID] = blockPair{b, cb}
		for _, in := range b.Instrs {
			if c.instrs[in.ID].old != nil {
				panic(fmt.Sprintf("ir: Clone: @%s lists v%d twice", f.Name, in.ID))
			}
			ci := new(Instr)
			*ci = *in
			c.instrs[in.ID] = instrPair{in, ci}
		}
		return cb
	})
	for _, p := range c.blocks {
		if b := p.old; b != nil {
			p.new.Instrs = cloneSlice(b.Instrs, c.instr)
			p.new.Preds = cloneSlice(b.Preds, c.block)
		}
	}
	for _, p := range c.instrs {
		if in := p.new; in != nil {
			in.Args = cloneSlice(in.Args, c.instr)
			in.Block = c.block(in.Block)
			in.Global = remap(c.globals, in.Global)
			in.Callee = remap(c.funcs, in.Callee)
			in.Edges = cloneSlice(in.Edges, c.block)
		}
	}
}

// remap returns x's copy; x must be in the module being cloned.
func remap[T any](copies map[*T]*T, x *T) *T {
	if x == nil {
		return nil
	}
	c, ok := copies[x]
	if !ok {
		panic("ir: Clone: reference to a global or function outside the module")
	}
	return c
}

// block returns b's copy; b must be in the body being cloned.
func (c *bodyCloner) block(b *Block) *Block {
	if b == nil {
		return nil
	}
	if uint(b.ID) >= uint(len(c.blocks)) || c.blocks[b.ID].old != b {
		panic(fmt.Sprintf("ir: Clone: @%s references b%d outside its body", c.f.Name, b.ID))
	}
	return c.blocks[b.ID].new
}

// instr returns in's copy; in must be in the body being cloned.
func (c *bodyCloner) instr(in *Instr) *Instr {
	if in == nil {
		return nil
	}
	if uint(in.ID) >= uint(len(c.instrs)) || c.instrs[in.ID].old != in {
		panic(fmt.Sprintf("ir: Clone: @%s references v%d outside its body", c.f.Name, in.ID))
	}
	return c.instrs[in.ID].new
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough. s must be zero beyond its length,
// and stays so: resize clears only the length s had. A new array gets a
// quarter more room, since a function grows while its module compiles.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	clear(s)
	return s[:n]
}

// truncate returns s[:0], clearing the elements it drops.
func truncate[T any](s []T) []T {
	clear(s)
	return s[:0]
}
