package ir_test

import (
	"fmt"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/pipeline"
)

// sliceShape is what a clone must keep of an IR slice.
func sliceShape[T any](s []T) string {
	return fmt.Sprintf("%d/%d/%t", len(s), cap(s), s == nil)
}

// cloneMismatch compares the clone c with its original m object by object:
// the same IDs, counters, flags and slice shapes, and no object in common.
// It returns the first difference, or "".
func cloneMismatch(m, c *ir.Module) string {
	orig := map[any]bool{}
	for _, g := range m.Globals {
		orig[g] = true
	}
	for _, f := range m.Funcs {
		orig[f] = true
		for _, b := range f.Blocks {
			orig[b] = true
			for _, in := range b.Instrs {
				orig[in] = true
			}
		}
	}
	shared := func(x any) bool { return orig[x] }
	if sliceShape(m.Globals) != sliceShape(c.Globals) || sliceShape(m.Funcs) != sliceShape(c.Funcs) {
		return "module slices"
	}
	for i, g := range m.Globals {
		cg := c.Globals[i]
		switch {
		case shared(cg):
			return "global " + g.Name + " shared"
		case sliceShape(g.Init) != sliceShape(cg.Init):
			return "global " + g.Name + " Init"
		case g.Escapes != cg.Escapes || g.AddrExposed != cg.AddrExposed:
			return "global " + g.Name + " escape flags"
		}
		for j, k := range cg.Init {
			if k.Global != nil && (shared(k.Global) || k.Global.Name != g.Init[j].Global.Name) {
				return "global " + g.Name + " Init address"
			}
		}
	}
	for i, f := range m.Funcs {
		cf := c.Funcs[i]
		switch {
		case shared(cf):
			return "func " + f.Name + " shared"
		case sliceShape(f.Blocks) != sliceShape(cf.Blocks) || sliceShape(f.ParamTys) != sliceShape(cf.ParamTys):
			return "func " + f.Name + " slices"
		case f.NumBlocks() != cf.NumBlocks() || f.NumValues() != cf.NumValues():
			return "func " + f.Name + " ID counters"
		case f.Gen() != cf.Gen() || f.WasInlined != cf.WasInlined:
			return "func " + f.Name + " generation or WasInlined"
		}
		for j, b := range f.Blocks {
			cb := cf.Blocks[j]
			switch {
			case shared(cb) || cb.Func != cf:
				return fmt.Sprintf("%s block %d identity", f.Name, b.ID)
			case cb.ID != b.ID || sliceShape(b.Instrs) != sliceShape(cb.Instrs) || sliceShape(b.Preds) != sliceShape(cb.Preds):
				return fmt.Sprintf("%s block %d shape", f.Name, b.ID)
			}
			for _, p := range cb.Preds {
				if shared(p) {
					return fmt.Sprintf("%s block %d pred shared", f.Name, b.ID)
				}
			}
			for k, in := range b.Instrs {
				ci := cb.Instrs[k]
				switch {
				case shared(ci) || ci.Block != cb:
					return fmt.Sprintf("%s v%d identity", f.Name, in.ID)
				case ci.ID != in.ID || sliceShape(in.Args) != sliceShape(ci.Args) || sliceShape(in.Edges) != sliceShape(ci.Edges):
					return fmt.Sprintf("%s v%d shape", f.Name, in.ID)
				case in.Global != nil && shared(ci.Global), in.Callee != nil && shared(ci.Callee):
					return fmt.Sprintf("%s v%d global or callee shared", f.Name, in.ID)
				}
				for _, a := range ci.Args {
					if shared(a) {
						return fmt.Sprintf("%s v%d argument shared", f.Name, in.ID)
					}
				}
				for _, e := range ci.Edges {
					if shared(e) {
						return fmt.Sprintf("%s v%d edge shared", f.Name, in.ID)
					}
				}
			}
		}
	}
	return ""
}

// TestModuleClone: a clone of a lowered module and of an optimized one
// prints as its original does, keeps every ID, counter and slice shape,
// shares no global, function, block or instruction with it, and can be
// edited without touching the original.
func TestModuleClone(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipeline.New(pipeline.GCC, pipeline.O3).CompileObserved(optimized, nil); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*ir.Module{lowered, optimized} {
			want := m.String()
			c := m.Clone()
			if got := c.String(); got != want {
				t.Fatalf("seed %d: the clone prints differently:\n%s\nwant:\n%s", seed, got, want)
			}
			if diff := cloneMismatch(m, c); diff != "" {
				t.Fatalf("seed %d: clone differs from its original: %s", seed, diff)
			}
			if err := ir.Verify(c); err != nil {
				t.Fatalf("seed %d: clone fails verification: %v", seed, err)
			}
			// Edit the clone everywhere: the original must not notice.
			for _, g := range c.Globals {
				g.Escapes = !g.Escapes
				for i := range g.Init {
					g.Init[i].Int++
				}
			}
			for _, f := range c.Funcs {
				f.MarkMutated()
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						in.IntVal++
						if len(in.Args) > 0 {
							in.Args[0] = nil
						}
					}
					b.Instrs = b.Instrs[:0]
				}
				f.NewBlock()
			}
			if got := m.String(); got != want {
				t.Fatalf("seed %d: editing the clone changed the original", seed)
			}
		}
	}
}
