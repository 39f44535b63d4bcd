package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/pool"
)

// Pooled pass scratch. The hot function passes (sccp, dce, gvn, vrp,
// licm) run once per function per pass instance, many times per compile
// unit, and each needs dense-ID tables as large as the function, as do
// the analyses the passes call: dominator tree, loops, reachability,
// alias exposure, the module's global accesses and escapes, and the maps
// of the cloning passes (inline, unroll, unswitch). Each pass keeps its
// tables in one state value recycled through its own pool.Pool, and the
// passes with no other pooled state share pools of Relocators, of CFG
// analyses (cfgScratch) and of clone maps, all under one rule: a pooled
// table is zero beyond its length at all times. So resize clears only the
// length the last user left, a worklist zeroes each slot it pops, a table
// that shrinks while held zeroes the slots it drops, and before a state
// returns to its pool every table that holds pointers is cleared over
// exactly its length and the state drops the function and options it
// served. A pooled state therefore never pins a finished module, and a
// unit pays to clear only the slots it wrote, not a table's capacity,
// which tracks the largest function the state ever served. While the
// collector marks, every pointer slot cleared also pays a write barrier.
// Campaign workers compile concurrently and share the pools, which hand
// each state to one goroutine at a time.

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough. A new array gets a quarter more
// room: a function only grows while its module compiles, and the next
// pass instance on it should not reallocate.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	clear(s) // beyond its length, s is already zero
	return s[:n]
}

// shrink returns s[:n], zeroing the slots it drops.
func shrink[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// pop removes and returns the last element of the worklist *s, zeroing
// its slot.
func pop[T any](s *[]T) T {
	n := len(*s) - 1
	v := (*s)[n]
	var zero T
	(*s)[n] = zero
	*s = (*s)[:n]
	return v
}

// cfgScratch is the CFG analyses a pass rebuilds in place for each
// function it visits: a dominator tree, a loop finder and a reachability
// table. gvn, licm and vrp hold one in their pooled states; the other
// passes that need them share cfgPool.
type cfgScratch struct {
	dt    ir.DomTree
	lf    ir.LoopFinder
	reach []bool // by Block.ID; holds no pointers
}

// dominators rebuilds the dominator tree for f.
func (c *cfgScratch) dominators(f *ir.Func) *ir.DomTree {
	c.dt.Rebuild(f)
	return &c.dt
}

// loops rebuilds the dominator tree for f and finds f's natural loops,
// valid until the scratch serves another function.
func (c *cfgScratch) loops(f *ir.Func) []*ir.Loop {
	return c.lf.Find(f, c.dominators(f))
}

// reset drops the analyses' references to the function they served.
func (c *cfgScratch) reset() {
	c.dt.Reset()
	c.lf.Reset()
}

var cfgPool = pool.Pool[cfgScratch]{New: func() *cfgScratch { return new(cfgScratch) }}

func putCFG(c *cfgScratch) {
	c.reset()
	cfgPool.Put(c)
}

// cloneMap maps the blocks and values of a region being copied (an
// inlined callee, a loop) to their copies, in tables indexed by the
// source object's ID. Each slot also holds its source, as ir.Relocator's
// and ir.Module.Clone's do, so an object whose ID collides with a mapped
// one's (a value of the caller, a block created since) is never taken for
// it. Maps are recycled through clonePool.
type cloneMap struct {
	blocks []blockPair // by the source Block.ID
	vals   []valuePair // by the source Instr.ID
}

type (
	blockPair struct{ old, new *ir.Block }
	valuePair struct{ old, new *ir.Instr }
)

// reset empties m for sources with block IDs below nb and value IDs below
// nv.
func (m *cloneMap) reset(nb, nv int) {
	m.blocks = resize(m.blocks, nb)
	m.vals = resize(m.vals, nv)
}

// forget zeroes the slots of blocks and of their values, so that a map
// reused for another copy of the same region clears the region's slots
// rather than a table as large as the function.
func (m *cloneMap) forget(blocks []*ir.Block) {
	for _, b := range blocks {
		m.blocks[b.ID] = blockPair{}
		for _, in := range b.Instrs {
			m.vals[in.ID] = valuePair{}
		}
	}
}

func (m *cloneMap) setBlock(old, new *ir.Block) { m.blocks[old.ID] = blockPair{old, new} }

func (m *cloneMap) setVal(old, new *ir.Instr) { m.vals[old.ID] = valuePair{old, new} }

// block returns b's copy, if b is mapped.
func (m *cloneMap) block(b *ir.Block) (*ir.Block, bool) {
	if b != nil && uint(b.ID) < uint(len(m.blocks)) && m.blocks[b.ID].old == b {
		return m.blocks[b.ID].new, true
	}
	return nil, false
}

// val returns v's copy, if v is mapped.
func (m *cloneMap) val(v *ir.Instr) (*ir.Instr, bool) {
	if v != nil && uint(v.ID) < uint(len(m.vals)) && m.vals[v.ID].old == v {
		return m.vals[v.ID].new, true
	}
	return nil, false
}

var clonePool = pool.Pool[cloneMap]{New: func() *cloneMap { return new(cloneMap) }}

func putCloneMap(m *cloneMap) {
	m.blocks, m.vals = shrink(m.blocks, 0), shrink(m.vals, 0)
	clonePool.Put(m)
}

// relocPool recycles the Relocators of passes that keep no other pooled
// state; putRelocator resets one, zeroing its occupied slots, before it
// returns.
var relocPool = pool.Pool[ir.Relocator]{New: func() *ir.Relocator { return new(ir.Relocator) }}

func putRelocator(r *ir.Relocator) {
	r.Reset()
	relocPool.Put(r)
}
