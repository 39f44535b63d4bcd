package ir

import "slices"

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first search.
func (f *Func) ReversePostorder() []*Block {
	return f.reversePostorder(nil, make([]bool, f.nextBlockID))
}

// reversePostorder writes f's reverse postorder over rpo's array, marking
// each reachable block in seen, which is all false and dense by Block.ID.
func (f *Func) reversePostorder(rpo []*Block, seen []bool) []*Block {
	rpo = postorder(f.Entry(), seen, truncate(rpo))
	slices.Reverse(rpo)
	return rpo
}

// postorder appends the blocks a depth-first search from b reaches to
// post, each after its successors.
func postorder(b *Block, seen []bool, post []*Block) []*Block {
	seen[b.ID] = true
	for _, s := range b.Succs() {
		if !seen[s.ID] {
			post = postorder(s, seen, post)
		}
	}
	return append(post, b)
}

// Reachable returns the set of blocks reachable from entry, dense by
// Block.ID.
func (f *Func) Reachable() []bool { return f.ReachableInto(nil) }

// ReachableInto is Reachable written over r's array when it is large
// enough; r must be zero beyond its length, and stays so.
func (f *Func) ReachableInto(r []bool) []bool {
	r = resize(r, f.nextBlockID)
	markReachable(f.Entry(), r)
	return r
}

func markReachable(b *Block, r []bool) {
	if r[b.ID] {
		return
	}
	r[b.ID] = true
	for _, s := range b.Succs() {
		markReachable(s, r)
	}
}

// DomTree is the dominator tree of a function. All internal tables are
// dense by Block.ID. Every dominance-consuming pass instance needs the
// tree of each function it visits, so a pass keeps one DomTree and
// rebuilds it in place (Rebuild): once its tables are as large as the
// largest function, a rebuild allocates nothing.
type DomTree struct {
	idom []*Block // immediate dominator; entry and unreachable → nil
	// Dominator-tree children, in RPO, carved from one slab: b's children
	// are kids[kidStart[b.ID]:kidStart[b.ID+1]].
	kids     []*Block
	kidStart []int32
	order    []int32 // reverse postorder index; -1 = unreachable
	rpo      []*Block
	seen     []bool // the postorder walk's visited set
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func Dominators(f *Func) *DomTree {
	t := new(DomTree)
	t.Rebuild(f)
	return t
}

// Rebuild makes t the dominator tree of f (see Dominators), reusing its
// tables. Slices t returned before (RPO, Children) are invalid afterwards.
func (t *DomTree) Rebuild(f *Func) {
	n := f.nextBlockID
	t.idom = resize(t.idom, n)
	t.kidStart = resize(t.kidStart, n+1)
	t.order = resize(t.order, n)
	for i := range t.order {
		t.order[i] = -1
	}
	t.seen = resize(t.seen, n)
	t.rpo = f.reversePostorder(t.rpo, t.seen)
	for i, b := range t.rpo {
		t.order[b.ID] = int32(i)
	}
	entry := f.Entry()
	t.idom[entry.ID] = entry // sentinel during iteration
	changed := true
	for changed {
		changed = false
		for _, b := range t.rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if t.idom[p.ID] == nil {
					continue // not processed yet
				}
				if t.order[p.ID] < 0 {
					continue // unreachable predecessor
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom == nil {
				continue
			}
			if t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry.ID] = nil
	// Children in RPO: count each block's children, turn the counts into
	// start offsets, then fill. While filling, kidStart[d] is d's next free
	// slot, so it ends as d+1's start and the offsets shift back by one.
	start := t.kidStart
	for _, b := range t.rpo {
		if d := t.idom[b.ID]; d != nil {
			start[d.ID+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	t.kids = resize(t.kids, int(start[n]))
	for _, b := range t.rpo {
		if d := t.idom[b.ID]; d != nil {
			t.kids[start[d.ID]] = b
			start[d.ID]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
}

// Reset drops t's references to the function it was built for, keeping
// its tables for the next Rebuild.
func (t *DomTree) Reset() {
	t.idom = truncate(t.idom)
	t.kids = truncate(t.kids)
	t.rpo = truncate(t.rpo)
}

func (t *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for t.order[a.ID] > t.order[b.ID] {
			a = t.idom[a.ID]
			if a == nil {
				return b
			}
		}
		for t.order[b.ID] > t.order[a.ID] {
			b = t.idom[b.ID]
			if b == nil {
				return a
			}
		}
	}
	return a
}

// Children returns the dominator-tree children of b, in reverse postorder.
func (t *DomTree) Children(b *Block) []*Block {
	lo, hi := t.kidStart[b.ID], t.kidStart[b.ID+1]
	return t.kids[lo:hi:hi]
}

// RPO returns the reachable blocks in reverse postorder.
func (t *DomTree) RPO() []*Block { return t.rpo }

// Reachable reports whether b was reachable from entry when t was built.
func (t *DomTree) Reachable(b *Block) bool {
	return uint(b.ID) < uint(len(t.order)) && t.order[b.ID] >= 0
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = t.idom[b.ID]
	}
	return false
}

// Frontiers computes the dominance frontier of every reachable block
// (Cytron et al.), dense by Block.ID; used by mem2reg's phi placement.
func (t *DomTree) Frontiers() [][]*Block {
	df := make([][]*Block, len(t.idom))
	for _, b := range t.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if t.order[p.ID] < 0 {
				continue
			}
			runner := p
			for runner != nil && runner != t.idom[b.ID] {
				if !contains(df[runner.ID], b) {
					df[runner.ID] = append(df[runner.ID], b)
				}
				runner = t.idom[runner.ID]
			}
		}
	}
	return df
}

func contains(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// Loop describes one natural loop.
type Loop struct {
	Header *Block
	// Blocks is the loop's body, a set dense by Block.ID (see Contains).
	Blocks []bool
	// Latches are the in-loop predecessors of the header.
	Latches []*Block
}

// Contains reports whether b is in the loop's body. A block created after
// the loop was found is not.
func (l *Loop) Contains(b *Block) bool {
	return b != nil && uint(b.ID) < uint(len(l.Blocks)) && l.Blocks[b.ID]
}

// Exits returns the out-of-loop successor edges as (from, to) pairs, in
// block order.
func (l *Loop) Exits() [][2]*Block {
	var out [][2]*Block
	for _, b := range l.Header.Func.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				out = append(out, [2]*Block{b, s})
			}
		}
	}
	return out
}

// NaturalLoops finds all natural loops via back edges (an edge u->h where h
// dominates u). Loops sharing a header are merged, as is conventional.
func NaturalLoops(f *Func, t *DomTree) []*Loop {
	var lf LoopFinder
	return lf.Find(f, t)
}

// LoopFinder finds natural loops (NaturalLoops), reusing its tables from
// one function to the next: the loops, one slab holding every loop's
// block set, the loops by header, and the body walk's worklist.
type LoopFinder struct {
	loops []Loop
	found []*Loop
	sets  []bool  // the loops' block sets, one function's block count each
	index []int32 // by header Block.ID: 1 + the loop's index in loops; 0 = none
	stack []*Block
}

// Find returns the natural loops of f, whose dominator tree is t, in
// reverse postorder of their headers. They are valid until the next Find
// or Reset.
func (lf *LoopFinder) Find(f *Func, t *DomTree) []*Loop {
	n := f.nextBlockID
	lf.Reset()
	lf.index = resize(lf.index, n)
	lf.sets = truncate(lf.sets)
	for _, b := range t.rpo {
		for _, s := range b.Succs() {
			if !t.Dominates(s, b) {
				continue
			}
			k := int(lf.index[s.ID]) - 1
			if k < 0 {
				k = lf.add(s, n)
				lf.index[s.ID] = int32(k + 1)
			}
			l := &lf.loops[k]
			l.Latches = append(l.Latches, b)
			// Collect the loop body: blocks that reach the latch without
			// passing through the header.
			set := lf.sets[k*n : (k+1)*n]
			if !set[b.ID] {
				set[b.ID] = true
				lf.stack = append(lf.stack, b)
			}
			for len(lf.stack) > 0 {
				top := len(lf.stack) - 1
				x := lf.stack[top]
				lf.stack[top] = nil
				lf.stack = lf.stack[:top]
				for _, p := range x.Preds {
					if t.order[p.ID] < 0 {
						continue
					}
					if !set[p.ID] {
						set[p.ID] = true
						lf.stack = append(lf.stack, p)
					}
				}
			}
		}
	}
	for _, b := range t.rpo { // deterministic order
		if k := int(lf.index[b.ID]); k > 0 {
			l := &lf.loops[k-1]
			l.Blocks = lf.sets[(k-1)*n : k*n : k*n]
			lf.found = append(lf.found, l)
		}
	}
	return lf.found
}

// add starts the loop headed by h, with h in its block set, and returns
// its index.
func (lf *LoopFinder) add(h *Block, n int) int {
	k := len(lf.loops)
	if k < cap(lf.loops) {
		lf.loops = lf.loops[:k+1] // keeps the slot's Latches array
	} else {
		lf.loops = append(lf.loops, Loop{})
	}
	lf.loops[k].Header = h
	m := len(lf.sets)
	lf.sets = slices.Grow(lf.sets, n)[:m+n]
	lf.sets[m+h.ID] = true
	return k
}

// Reset drops lf's references to the function it last served, keeping its
// tables for the next Find.
func (lf *LoopFinder) Reset() {
	for i := range lf.loops {
		l := &lf.loops[i]
		*l = Loop{Latches: truncate(l.Latches)}
	}
	lf.loops = lf.loops[:0]
	lf.found = truncate(lf.found)
}
