package core

import (
	"sort"

	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
)

// MarkerCFG is the interprocedural control-flow graph restricted to marker
// nodes (paper §3.2). Each marker's predecessors are the markers that
// immediately precede it on some CFG path — intermediate unmarked blocks
// are transparent — plus, for function-entry markers, the markers
// preceding each call site. The synthetic root LiveRoot represents program
// entry (always alive).
type MarkerCFG struct {
	// Preds maps a marker to its predecessor markers. The empty string is
	// the live root (function/main entry reached without passing any
	// marker).
	Preds map[string][]string
}

// LiveRoot is the synthetic always-alive predecessor.
const LiveRoot = ""

// BuildMarkerCFG lowers the instrumented program without optimization and
// derives the marker graph from the raw IR's control flow (MarkerCFGOf).
func BuildMarkerCFG(ins *instrument.Program) (*MarkerCFG, error) {
	m, err := lower.Lower(ins.Prog)
	if err != nil {
		return nil, err
	}
	return MarkerCFGOf(m), nil
}

// MarkerCFGOf derives the marker graph from m, a program lowered without
// optimization. It only reads m, so a seed lowers its program once
// (Lower): the graph is derived from the module and the seed's trie then
// optimizes it.
func MarkerCFGOf(m *ir.Module) *MarkerCFG {
	g := &MarkerCFG{Preds: map[string][]string{}}

	// Locate each marker's block, and each function's call sites.
	type site struct {
		block *ir.Block
		index int // instruction index of the call within the block
	}
	markerAt := map[*ir.Block][]site{} // marker calls per block (usually one)
	markerName := map[*ir.Instr]string{}
	callSites := map[*ir.Func][]site{}
	entryOf := map[*ir.Func]*ir.Block{}

	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		entryOf[f] = f.Entry()
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpCall || in.Callee == nil {
					continue
				}
				if instrument.IsMarker(in.Callee.Name) {
					markerAt[b] = append(markerAt[b], site{b, i})
					markerName[in] = in.Callee.Name
				} else if !in.Callee.External {
					callSites[in.Callee] = append(callSites[in.Callee], site{b, i})
				}
			}
		}
	}

	// nearestMarkersBefore finds the markers that immediately precede a
	// position (block b, instruction index i) on every backward path.
	// Returns marker names; LiveRoot for paths reaching the function entry
	// unmarked. Interprocedural: falling off a function's entry continues
	// at that function's call sites.
	var nearestBefore func(f *ir.Func, b *ir.Block, idx int, seen map[*ir.Block]bool, fseen map[*ir.Func]bool) []string

	nearestBefore = func(f *ir.Func, b *ir.Block, idx int, seen map[*ir.Block]bool, fseen map[*ir.Func]bool) []string {
		// A marker call earlier in this block?
		for i := idx - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if name, ok := markerName[in]; ok {
				return []string{name}
			}
		}
		var out []string
		if len(b.Preds) == 0 {
			// Function entry reached without a marker.
			if f.Name == "main" {
				return []string{LiveRoot}
			}
			sites := callSites[f]
			if len(sites) == 0 {
				// Never-called function: no predecessors at all. Entry
				// markers of such functions have an empty pred set, which
				// makes them primary when missed (vacuous condition), as
				// intended: nothing else explains the miss.
				return nil
			}
			if fseen[f] {
				return nil // recursive call-site expansion: cut the cycle
			}
			fseen[f] = true
			for _, s := range sites {
				out = append(out, nearestBefore(s.block.Func, s.block, s.index, map[*ir.Block]bool{}, fseen)...)
			}
			return out
		}
		for _, p := range b.Preds {
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, nearestBefore(f, p, len(p.Instrs), seen, fseen)...)
		}
		return out
	}

	for b, sites := range markerAt {
		for _, s := range sites {
			in := b.Instrs[s.index]
			name := markerName[in]
			preds := nearestBefore(b.Func, b, s.index, map[*ir.Block]bool{}, map[*ir.Func]bool{})
			g.Preds[name] = dedupe(preds)
		}
	}
	return g
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Primary filters a missed-marker set down to the primary missed markers
// (paper §3.2 Definition): a missed marker is primary iff every
// predecessor is alive or was detected (eliminated) — i.e. no neighbouring
// missed dead marker explains the miss.
func (g *MarkerCFG) Primary(t *Truth, missed []string) []string {
	missedSet := map[string]bool{}
	for _, m := range missed {
		missedSet[m] = true
	}
	var out []string
	for _, m := range missed {
		primary := true
		for _, p := range g.Preds[m] {
			if p == LiveRoot {
				continue // live
			}
			if t.Alive[p] {
				continue // l(u) = live
			}
			if !missedSet[p] {
				continue // dead and detected
			}
			// p is dead and also missed: m is secondary.
			primary = false
			break
		}
		if primary {
			out = append(out, m)
		}
	}
	return out
}
