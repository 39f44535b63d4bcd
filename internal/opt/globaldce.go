package opt

import (
	"dcelens/internal/ir"
)

// GlobalDCE removes internal functions that are unreachable in the call
// graph from the module's roots (main and every externally-visible
// function). Marker calls inside removed functions vanish from the
// assembly — this is how function-entry markers of never-called static
// functions get eliminated.
//
// Globals are deliberately NOT removed: the reproduction's observation
// model reads every global after exit (the Csmith-style checksum), so an
// "unused" global is still observable state.
var GlobalDCE = Pass{Name: "globaldce", Run: globalDCE, Reads: func(o Options) Options {
	return Options{KeepSRAClones: o.KeepSRAClones}
}}

// globalDCE only removes whole functions; surviving bodies are untouched,
// so it reports no per-function invalidations.
func globalDCE(m *ir.Module, o Options, inv *Invalidation) bool {
	live := map[*ir.Func]bool{}
	var mark func(f *ir.Func)
	mark = func(f *ir.Func) {
		if live[f] {
			return
		}
		live[f] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil {
					mark(in.Callee)
				}
			}
		}
	}
	for _, f := range m.Funcs {
		if f.External || !f.Internal || f.Name == "main" {
			mark(f)
		}
	}
	var keep []*ir.Func
	changed := false
	for _, f := range m.Funcs {
		switch {
		case f.External || live[f]:
			keep = append(keep, f)
		case o.KeepSRAClones && hasPointerParam(f) && f.WasInlined:
			// Emulates GCC's interprocedural-SRA leftovers (paper Listing
			// 9b): when a pointer-parameter function was argument-promoted
			// and inlined everywhere, its specialized copy survives even
			// though nothing references it, so its marker calls stay in
			// the assembly. Never-called helpers are removed normally.
			keep = append(keep, f)
		default:
			changed = true
		}
	}
	if changed {
		m.Funcs = keep
	}
	return changed
}

func hasPointerParam(f *ir.Func) bool {
	for _, t := range f.ParamTys {
		if t.IsPointer() {
			return true
		}
	}
	return false
}
