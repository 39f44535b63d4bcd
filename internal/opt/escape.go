package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/pool"
)

// ComputeEscapesOpt honours the PessimisticEscape ablation knob. It reports
// whether any global's flags changed — the signal the pass manager uses to
// re-visit otherwise-clean functions in passes that consume the facts.
func ComputeEscapesOpt(m *ir.Module, o Options) bool {
	if o.PessimisticEscape {
		changed := false
		for _, g := range m.Globals {
			if !g.Escapes || !g.AddrExposed {
				changed = true
			}
			g.Escapes = true
			g.AddrExposed = true
		}
		return changed
	}
	return ComputeEscapes(m)
}

// ComputeEscapes (re)computes Global.Escapes and Global.AddrExposed,
// reporting whether any flag changed: whether external code can observe or
// modify each global, and whether its address flows anywhere beyond direct
// loads and stores. This is the analysis behind the paper's central setup:
// calls to bodyless marker functions cannot clobber a static global whose
// address never escapes, so constant propagation may look straight
// through them.
func ComputeEscapes(m *ir.Module) bool {
	old := make([]bool, 0, 2*len(m.Globals))
	for _, g := range m.Globals {
		old = append(old, g.Escapes, g.AddrExposed)
	}
	computeEscapes(m)
	for i, g := range m.Globals {
		if g.Escapes != old[2*i] || g.AddrExposed != old[2*i+1] {
			return true
		}
	}
	return false
}

// escapeTables holds computeEscapes' per-value sets, reused across the
// functions and fixpoint rounds of a computation and, through escapePool,
// across computations. They hold no pointers (scratch.go).
type escapeTables struct {
	esc, exp []bool // by Instr.ID
}

var escapePool = pool.Pool[escapeTables]{New: func() *escapeTables { return new(escapeTables) }}

func computeEscapes(m *ir.Module) {
	t := escapePool.Get()
	t.compute(m)
	escapePool.Put(t)
}

func (t *escapeTables) compute(m *ir.Module) {
	// Step 1: per-function parameter escape summaries, to a fixpoint: does
	// the value passed for parameter i escape to external code (stored to
	// memory, passed to an external call, returned, or passed to an
	// internal parameter that itself escapes)?
	summaries := map[*ir.Func][]bool{}
	for _, f := range m.Funcs {
		if !f.External {
			summaries[f] = make([]bool, len(f.ParamTys))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			t.esc = escapingValues(f, summaries, t.esc)
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpParam && t.esc[in.ID] && !summaries[f][in.IntVal] {
						summaries[f][in.IntVal] = true
						changed = true
					}
				}
			}
		}
	}

	// Step 2: classify each global's address uses.
	for _, g := range m.Globals {
		g.Escapes = !g.Internal
		g.AddrExposed = false
	}
	// Addresses appearing in other globals' initializers are exposed (and
	// escape if the holder escapes — conservatively: exposed implies the
	// pointer can be loaded by anyone who can read the holder; treat as
	// exposed only, escape decided by the loads' provenance — we stay
	// conservative and mark escape when the holding global escapes).
	for _, holder := range m.Globals {
		for _, c := range holder.Init {
			if c.IsAddr && c.Global != nil {
				c.Global.AddrExposed = true
				if !holder.Internal {
					c.Global.Escapes = true
				}
			}
		}
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		t.esc = escapingValues(f, summaries, t.esc)
		t.exp = exposedValues(f, t.exp)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpGlobalAddr {
					continue
				}
				if t.esc[in.ID] {
					in.Global.Escapes = true
				}
				if t.exp[in.ID] {
					in.Global.AddrExposed = true
				}
			}
		}
	}
	// Escaping implies exposed.
	for _, g := range m.Globals {
		if g.Escapes {
			g.AddrExposed = true
		}
	}
}

// escapingValues computes the set of SSA values in f whose pointee may be
// accessed by external code, dense by instruction ID, over esc's array
// when it is large enough.
func escapingValues(f *ir.Func, summaries map[*ir.Func][]bool, esc []bool) []bool {
	esc = resize(esc, f.NumValues())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				// Storing a pointer publishes it.
				if in.Args[1].Typ != nil && in.Args[1].Typ.IsPointer() {
					markPointer(esc, in.Args[1])
				}
			case ir.OpCall:
				for i, a := range in.Args {
					if a.Typ == nil || !a.Typ.IsPointer() {
						continue
					}
					if in.Callee.External {
						markPointer(esc, a)
					} else if s := summaries[in.Callee]; s != nil && i < len(s) && s[i] {
						markPointer(esc, a)
					}
				}
			case ir.OpRet:
				if len(in.Args) > 0 && in.Args[0].Typ != nil && in.Args[0].Typ.IsPointer() {
					markPointer(esc, in.Args[0])
				}
			}
		}
	}
	return esc
}

// markPointer adds v to set, with the pointers v derives from: if v
// escapes (or is exposed) and is a GEP, phi or select, so are its pointer
// inputs.
func markPointer(set []bool, v *ir.Instr) {
	if set[v.ID] {
		return
	}
	set[v.ID] = true
	switch v.Op {
	case ir.OpGEP:
		markPointer(set, v.Args[0])
	case ir.OpPhi, ir.OpSelect:
		for _, a := range v.Args {
			if a.Typ != nil && a.Typ.IsPointer() {
				markPointer(set, a)
			}
		}
	}
}

// exposedValues computes values whose address identity leaks beyond direct
// memory accesses and comparisons, dense by instruction ID, over exp's
// array when it is large enough: such objects can be pointed at by
// pointers of unknown provenance.
func exposedValues(f *ir.Func, exp []bool) []bool {
	exp = resize(exp, f.NumValues())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a.Typ == nil || !a.Typ.IsPointer() {
					continue
				}
				switch in.Op {
				case ir.OpLoad:
					// direct load address: not exposing
				case ir.OpStore:
					if i == 1 {
						markPointer(exp, a) // stored pointer value: exposed
					}
				case ir.OpBin:
					// comparisons don't expose
				case ir.OpGEP:
					// exposure decided by the GEP's own uses
				default:
					// calls, rets, phis, selects expose the pointer
					markPointer(exp, a)
				}
			}
		}
	}
	// Phis/selects that are themselves exposed have marked their inputs.
	return exp
}
