package ir

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first search.
func (f *Func) ReversePostorder() []*Block {
	seen := make([]bool, f.nextBlockID)
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs() {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Reachable returns the set of blocks reachable from entry, dense by
// Block.ID.
func (f *Func) Reachable() []bool {
	r := make([]bool, f.nextBlockID)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if r[b.ID] {
			return
		}
		r[b.ID] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
	}
	dfs(f.Entry())
	return r
}

// DomTree is the dominator tree of a function. All internal tables are
// dense by Block.ID — the tree is rebuilt by every dominance-consuming pass
// instance, so its construction cost (formerly dominated by map churn) is
// squarely on the campaign hot path.
type DomTree struct {
	fn   *Func
	idom []*Block // immediate dominator; entry and unreachable → nil
	// Dominator-tree children, in RPO, carved from one slab: b's children
	// are kids[kidStart[b.ID]:kidStart[b.ID+1]].
	kids     []*Block
	kidStart []int32
	order    []int32 // reverse postorder index; -1 = unreachable
	rpo      []*Block
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func Dominators(f *Func) *DomTree {
	n := f.nextBlockID
	t := &DomTree{
		fn:       f,
		idom:     make([]*Block, n),
		kidStart: make([]int32, n+1),
		order:    make([]int32, n),
	}
	for i := range t.order {
		t.order[i] = -1
	}
	t.rpo = f.ReversePostorder()
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
	t.kids = make([]*Block, start[n])
	for _, b := range t.rpo {
		if d := t.idom[b.ID]; d != nil {
			t.kids[start[d.ID]] = b
			start[d.ID]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return t
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
	Blocks map[*Block]bool
	// Latches are the in-loop predecessors of the header.
	Latches []*Block
}

// Exits returns the out-of-loop successor edges as (from, to) pairs.
func (l *Loop) Exits() [][2]*Block {
	var out [][2]*Block
	for b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] {
				out = append(out, [2]*Block{b, s})
			}
		}
	}
	return out
}

// NaturalLoops finds all natural loops via back edges (an edge u->h where h
// dominates u). Loops sharing a header are merged, as is conventional.
func NaturalLoops(f *Func, t *DomTree) []*Loop {
	byHeader := map[*Block]*Loop{}
	for _, b := range t.rpo {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
				}
				l.Latches = append(l.Latches, b)
				// Collect the loop body: blocks that reach the latch
				// without passing through the header.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range x.Preds {
						if t.order[p.ID] < 0 {
							continue
						}
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, b := range t.rpo { // deterministic order
		if l, ok := byHeader[b]; ok {
			loops = append(loops, l)
		}
	}
	return loops
}
