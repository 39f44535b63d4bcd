package opt

import (
	"dcelens/internal/ir"
)

// SimplifyCFG cleans up the control-flow graph: it removes unreachable
// blocks, folds branches on constants and branches with identical targets,
// merges straight-line block pairs, bypasses empty forwarding blocks, and
// simplifies single-entry phis. Both personalities run it repeatedly, as
// real pipelines do.
var SimplifyCFG = Pass{Name: "simplifycfg", Fn: simplifyCFGFunc}

func simplifyCFGFunc(f *ir.Func, o Options) bool {
	c := cfgPool.Get()
	changed := false
	for simplifyCFGOnce(f, c) {
		changed = true
	}
	putCFG(c)
	return changed
}

func simplifyCFGOnce(f *ir.Func, c *cfgScratch) bool {
	changed := false
	if removeUnreachable(f, c) {
		changed = true
	}
	for _, b := range f.Blocks {
		if foldConstBranch(b) {
			changed = true
		}
	}
	// Phi simplification batches its replacements: one Apply sweep instead
	// of an O(function) ReplaceAllUses per trivial phi.
	reloc := relocPool.Get()
	for _, b := range f.Blocks {
		if simplifySingleEntryPhis(b, reloc) {
			changed = true
		}
	}
	reloc.Apply(f)
	putRelocator(reloc)
	if mergeStraightLine(f) {
		changed = true
	}
	if skipEmptyBlocks(f, c) {
		changed = true
	}
	return changed
}

// removeUnreachable deletes blocks not reachable from entry, first severing
// their edges into reachable blocks (fixing phis). It computes
// reachability in c's table.
func removeUnreachable(f *ir.Func, c *cfgScratch) bool {
	c.reach = f.ReachableInto(c.reach)
	reach := c.reach
	nReach := 0
	for _, r := range reach {
		if r {
			nReach++
		}
	}
	if nReach == len(f.Blocks) {
		return false
	}
	for _, b := range f.Blocks {
		if reach[b.ID] {
			continue
		}
		for _, s := range b.Succs() {
			if reach[s.ID] {
				ir.RemoveEdge(b, s)
			}
		}
	}
	var keep []*ir.Block
	for _, b := range f.Blocks {
		if reach[b.ID] {
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
	// Preds may still list removed blocks when both endpoints were dead;
	// those entries are gone with their blocks. Reachable blocks' preds
	// were fixed by RemoveEdge above, but prune any stale entries from
	// dead preds defensively.
	for _, b := range f.Blocks {
		var preds []*ir.Block
		for _, p := range b.Preds {
			if reach[p.ID] {
				preds = append(preds, p)
			} else {
				// Drop matching phi entries.
				for _, in := range b.Instrs {
					if in.Op != ir.OpPhi {
						break
					}
					for j, pb := range in.Edges {
						if pb == p {
							in.Edges = append(in.Edges[:j], in.Edges[j+1:]...)
							in.Args = append(in.Args[:j], in.Args[j+1:]...)
							break
						}
					}
				}
			}
		}
		b.Preds = preds
	}
	return true
}

// foldConstBranch rewrites condbr-on-constant and condbr with equal targets
// into unconditional branches.
func foldConstBranch(b *ir.Block) bool {
	t := b.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return false
	}
	if t.Edges[0] == t.Edges[1] {
		tgt := t.Edges[0]
		ir.RemoveEdge(b, tgt) // drop one of the two parallel edges
		t.Op = ir.OpBr
		t.Args = nil
		t.Edges = []*ir.Block{tgt}
		return true
	}
	cond := t.Args[0]
	var taken int
	switch cond.Op {
	case ir.OpConst:
		if cond.IntVal != 0 {
			taken = 0
		} else {
			taken = 1
		}
	case ir.OpNull:
		taken = 1
	default:
		return false
	}
	dead := t.Edges[1-taken]
	live := t.Edges[taken]
	ir.RemoveEdge(b, dead)
	t.Op = ir.OpBr
	t.Args = nil
	t.Edges = []*ir.Block{live}
	return true
}

// simplifySingleEntryPhis replaces phis with exactly one incoming value.
// Replacements are recorded in reloc (resolved on read, so chains of trivial
// phis collapse exactly as eager rewriting would); the caller applies them
// in one sweep.
func simplifySingleEntryPhis(b *ir.Block, reloc *ir.Relocator) bool {
	changed := false
	keep := b.Instrs[:0]
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi && len(in.Args) == 1 {
			reloc.Add(in, reloc.Resolve(in.Args[0]))
			changed = true
			continue
		}
		// Phi whose every input is the same value (or itself).
		if in.Op == ir.OpPhi {
			var uniq *ir.Instr
			trivial := true
			for _, a := range in.Args {
				a = reloc.Resolve(a)
				if a == in {
					continue
				}
				if uniq == nil {
					uniq = a
				} else if uniq != a {
					trivial = false
					break
				}
			}
			if trivial && uniq != nil {
				reloc.Add(in, uniq)
				changed = true
				continue
			}
		}
		keep = append(keep, in)
	}
	b.Instrs = keep
	return changed
}

// mergeStraightLine merges b into its unique successor s when b is s's
// unique predecessor.
func mergeStraightLine(f *ir.Func) bool {
	changed := false
	for {
		merged := false
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Edges[0]
			if s == b || len(s.Preds) != 1 || s.Preds[0] != b || s == f.Entry() {
				continue
			}
			// Splice: drop b's terminator, absorb s's instructions.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range s.Instrs {
				if in.Op == ir.OpPhi {
					// single-pred phi: replace with its value
					ir.ReplaceAllUses(in, in.Args[0])
					continue
				}
				in.Block = b
				b.Instrs = append(b.Instrs, in)
			}
			// b inherits s's successors.
			for _, ss := range s.Succs() {
				for i, p := range ss.Preds {
					if p == s {
						ss.Preds[i] = b
					}
				}
				for _, in := range ss.Instrs {
					if in.Op != ir.OpPhi {
						break
					}
					for i, pb := range in.Edges {
						if pb == s {
							in.Edges[i] = b
						}
					}
				}
			}
			// Delete s.
			for i, blk := range f.Blocks {
				if blk == s {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			merged = true
			changed = true
			break // block list changed; restart scan
		}
		if !merged {
			return changed
		}
	}
}

// skipEmptyBlocks redirects predecessors of blocks that contain only an
// unconditional branch. To keep phi semantics unambiguous, a forwarding
// block is bypassed only when its target has no phis or the forwarding
// block has a single predecessor.
func skipEmptyBlocks(f *ir.Func, c *cfgScratch) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Instrs) != 1 {
			continue
		}
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		s := t.Edges[0]
		if s == b {
			continue
		}
		hasPhis := len(s.Instrs) > 0 && s.Instrs[0].Op == ir.OpPhi
		if hasPhis && len(b.Preds) != 1 {
			continue
		}
		if hasPhis {
			p := b.Preds[0]
			// The value flowing through b now flows directly from p; also
			// refuse if p already reaches s (would create an ambiguous
			// duplicate phi entry).
			already := false
			for _, q := range s.Preds {
				if q == p {
					already = true
				}
			}
			if already {
				continue
			}
			for _, in := range s.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for i, pb := range in.Edges {
					if pb == b {
						in.Edges[i] = p
					}
				}
			}
			// Rewire edges manually: p -> s replaces p -> b -> s.
			pt := p.Term()
			for i, tgt := range pt.Edges {
				if tgt == b {
					pt.Edges[i] = s
				}
			}
			for i, q := range s.Preds {
				if q == b {
					s.Preds[i] = p
				}
			}
			b.Preds = nil
			t.Edges = nil // neutralize; b is now unreachable
			t.Op = ir.OpRet
			changed = true
			continue
		}
		// No phis in s: redirect every pred of b to s.
		for len(b.Preds) > 0 {
			p := b.Preds[0]
			ir.RedirectEdge(p, b, s)
			changed = true
		}
	}
	if changed {
		removeUnreachable(f, c)
	}
	return changed
}
