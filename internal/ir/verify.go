package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural SSA invariants of every function in the module:
// blocks end in exactly one terminator, edges and Preds agree, phi inputs
// match predecessor sets, definitions dominate uses, and operand/owner
// bookkeeping is intact. Passes run the verifier after themselves in tests;
// the pipeline can run it after every pass in a debug mode.
func Verify(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if f.External {
			if len(f.Blocks) != 0 {
				errs = append(errs, fmt.Errorf("%s: external function has blocks", f.Name))
			}
			continue
		}
		if err := verifyFunc(f); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f.Name, err))
		}
	}
	return errors.Join(errs...)
}

// VerifyFunc checks one function.
func VerifyFunc(f *Func) error { return verifyFunc(f) }

func verifyFunc(f *Func) error {
	var errs []error
	bail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}

	// f's blocks by Block.ID. A slot holds the block it was filled from,
	// so a block of another function whose ID collides with one of f's
	// own is still foreign.
	nb := f.NumBlocks()
	for _, b := range f.Blocks {
		nb = max(nb, b.ID+1)
	}
	blockAt := make([]*Block, nb)
	for _, b := range f.Blocks {
		blockAt[b.ID] = b
	}
	inFunc := func(b *Block) bool {
		return b != nil && uint(b.ID) < uint(len(blockAt)) && blockAt[b.ID] == b
	}

	nv := f.NumValues()
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			bail("b%d: empty block", b.ID)
			continue
		}
		for i, in := range b.Instrs {
			nv = max(nv, in.ID+1)
			if in.Block != b {
				bail("b%d: instruction v%d has wrong owner", b.ID, in.ID)
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				bail("b%d: terminator placement wrong at v%d (%v)", b.ID, in.ID, in.Op)
			}
			if in.Op == OpPhi {
				if len(in.Args) != len(in.PhiPreds) {
					bail("b%d: phi v%d has %d args, %d preds", b.ID, in.ID, len(in.Args), len(in.PhiPreds))
					continue
				}
				// Phis must be grouped at the top of the block.
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					bail("b%d: phi v%d not at block head", b.ID, in.ID)
				}
				if len(in.Args) != len(b.Preds) {
					bail("b%d: phi v%d has %d entries for %d preds", b.ID, in.ID, len(in.Args), len(b.Preds))
				}
				for _, pb := range in.PhiPreds {
					if !blockListContains(b.Preds, pb) {
						bail("b%d: phi v%d references non-pred b%d", b.ID, in.ID, pb.ID)
					}
				}
			}
			for _, t := range in.Targets {
				if !inFunc(t) {
					bail("b%d: v%d targets foreign block", b.ID, in.ID)
				}
			}
			for _, a := range in.Args {
				if a == nil {
					bail("b%d: v%d has nil operand", b.ID, in.ID)
					continue
				}
				if a.Block == nil || a.Block.Func != f {
					bail("b%d: v%d uses value from another function", b.ID, in.ID)
				}
				if a.Typ == nil && a.Op != OpCall {
					bail("b%d: v%d uses void value v%d (%v)", b.ID, in.ID, a.ID, a.Op)
				}
			}
		}
	}

	// Edge consistency: for every block pair (p, s), p's terminator edges
	// to s and p's entries in s.Preds must agree in number. Only f's own
	// terminators and Preds lists count, so an edge to or from a foreign
	// block always disagrees. Each pair is checked at its first
	// occurrence.
	for _, b := range f.Blocks {
		succs := b.Succs()
		for i, s := range succs {
			if blockListContains(succs[:i], s) {
				continue
			}
			n, preds := countBlock(succs, s), 0
			if inFunc(s) {
				preds = countBlock(s.Preds, b)
			}
			if preds != n {
				bail("edge b%d->b%d: %d terminator edges, %d pred entries", b.ID, s.ID, n, preds)
			}
		}
	}
	for _, s := range f.Blocks {
		for i, p := range s.Preds {
			if blockListContains(s.Preds[:i], p) {
				continue
			}
			n, edges := countBlock(s.Preds, p), 0
			if inFunc(p) {
				edges = countBlock(p.Succs(), s)
			}
			if edges != n {
				bail("edge b%d->b%d: %d pred entries, %d terminator edges", p.ID, s.ID, n, edges)
			}
		}
	}

	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	// Defs dominate uses (reachable blocks only). Every listed value's
	// Block is its block here (the owner check above passed), so the
	// table records only each value's position, keyed by Instr.ID and
	// holding the value itself: a value no block lists, even one whose ID
	// collides with a listed value's, is not in the function.
	dt := Dominators(f)
	reach := f.Reachable()
	defs := make([]valueDef, nv)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			defs[in.ID] = valueDef{in, int32(i)}
		}
	}
	def := func(a *Instr) (valueDef, bool) {
		if uint(a.ID) < uint(len(defs)) && defs[a.ID].in == a {
			return defs[a.ID], true
		}
		return valueDef{}, false
	}
	for _, b := range f.Blocks {
		if !reach[b.ID] {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == OpPhi {
				for i, a := range in.Args {
					pb := in.PhiPreds[i]
					if !reach[pb.ID] {
						continue
					}
					if _, ok := def(a); !ok {
						bail("phi v%d arg not in function", in.ID)
						continue
					}
					if db := a.Block; !dt.Dominates(db, pb) {
						bail("phi v%d: def b%d does not dominate incoming edge from b%d", in.ID, db.ID, pb.ID)
					}
				}
				continue
			}
			for _, a := range in.Args {
				d, ok := def(a)
				if !ok {
					bail("v%d: operand v%d not in function body", in.ID, a.ID)
					continue
				}
				if db := a.Block; db == b {
					if d.pos >= defs[in.ID].pos {
						bail("b%d: v%d used before defined (v%d)", b.ID, a.ID, in.ID)
					}
				} else if !dt.Dominates(db, b) {
					bail("v%d: def in b%d does not dominate use in b%d", a.ID, db.ID, b.ID)
				}
			}
		}
	}

	return errors.Join(errs...)
}

// valueDef is a listed value and its index in its block.
type valueDef struct {
	in  *Instr
	pos int32
}

func blockListContains(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

func countBlock(bs []*Block, b *Block) int {
	n := 0
	for _, x := range bs {
		if x == b {
			n++
		}
	}
	return n
}
