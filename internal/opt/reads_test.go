package opt_test

import (
	"fmt"
	"reflect"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/types"
)

// sameIR reports whether a and b, copies of one module that two runs
// transformed, are the same: everything the IR printer shows, plus the
// escape flags, which it leaves out but later passes read. It compares in
// place rather than printing, which would dominate the test's run time.
func sameIR(a, b *ir.Module) bool {
	if len(a.Globals) != len(b.Globals) || len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for i, g := range a.Globals {
		h := b.Globals[i]
		if g.Name != h.Name || g.Escapes != h.Escapes || g.AddrExposed != h.AddrExposed || len(g.Init) != len(h.Init) {
			return false
		}
		for j, k := range g.Init {
			if k.String() != h.Init[j].String() {
				return false
			}
		}
	}
	for i, f := range a.Funcs {
		g := b.Funcs[i]
		if f.Name != g.Name || len(f.Blocks) != len(g.Blocks) {
			return false
		}
		for j, x := range f.Blocks {
			y := g.Blocks[j]
			if x.ID != y.ID || !sameIDs(x.Preds, y.Preds) || len(x.Instrs) != len(y.Instrs) {
				return false
			}
			for k, in := range x.Instrs {
				jn := y.Instrs[k]
				if in.Op != jn.Op || in.ID != jn.ID || !sameType(in.Typ, jn.Typ) || in.IntVal != jn.IntVal ||
					in.BinOp != jn.BinOp || in.Widened != jn.Widened ||
					(in.Global == nil) != (jn.Global == nil) || in.Global != nil && in.Global.Name != jn.Global.Name ||
					(in.Callee == nil) != (jn.Callee == nil) || in.Callee != nil && in.Callee.Name != jn.Callee.Name ||
					!sameIDs(in.Edges, jn.Edges) || len(in.Args) != len(jn.Args) {
					return false
				}
				for l, v := range in.Args {
					if (v == nil) != (jn.Args[l] == nil) || v != nil && v.ID != jn.Args[l].ID {
						return false
					}
				}
			}
		}
	}
	return true
}

// sameType compares types as the printer shows them: passes may build
// equal types afresh.
func sameType(a, b *types.Type) bool {
	return a == b || a != nil && b != nil && a.String() == b.String()
}

func sameIDs(a, b []*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// variants returns copies of o with one exported field changed each, by
// field name.
func variants(o opt.Options) map[string]opt.Options {
	out := map[string]opt.Options{}
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		switch field.Type.Kind() {
		case reflect.Bool:
			c := o
			f := reflect.ValueOf(&c).Elem().Field(i)
			f.SetBool(!f.Bool())
			out[field.Name] = c
		case reflect.Int:
			// Off, and one step up: the levels are ordered, and a budget
			// that grows by one can admit one more candidate.
			for _, n := range []int64{0, v.Field(i).Int() + 1} {
				c := o
				f := reflect.ValueOf(&c).Elem().Field(i)
				if f.Int() == n {
					continue
				}
				f.SetInt(n)
				out[fmt.Sprintf("%s=%d", field.Name, n)] = c
			}
		default:
			panic("variants: unhandled Options field " + field.Name)
		}
	}
	return out
}

// TestPassReads checks every pass's Reads declaration: at the pass's first
// position in each personality's schedules, on the modules of ten seeds
// advanced to that position, changing any Options field the projection
// leaves out must not change what the pass does.
func TestPassReads(t *testing.T) {
	covered := map[string]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
			first := map[string]bool{}
			for _, lvl := range pipeline.Levels {
				cfg := pipeline.New(p, lvl)
				m, err := lower.Lower(ins.Prog)
				if err != nil {
					t.Fatal(err)
				}
				o := cfg.Options()
				r := cfg.Start(m)
				for pos, pass := range cfg.Passes() {
					if !first[pass.Name] {
						first[pass.Name] = true
						covered[pass.Name] = true
						checkReads(t, fmt.Sprintf("seed %d, %s at %s #%d", seed, pass.Name, cfg.Name(), pos), m, o, pass)
					}
					if err := r.Step(false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, p := range []opt.Pass{opt.Compact, opt.Mem2Reg, opt.IPSCCP, opt.SCCP, opt.InstCombine, opt.SimplifyCFG,
		opt.Inline, opt.LocalizeGlobals, opt.JumpThread, opt.VRP, opt.LICM, opt.GVN, opt.DSE, opt.DCE,
		opt.GlobalDCE, opt.WidenStores, opt.Unswitch, opt.Unroll} {
		if !covered[p.Name] {
			t.Errorf("no schedule runs %s", p.Name)
		}
	}
}

// checkReads runs pass on copies of m under o and under each variant of o
// its projection cannot tell from o, and compares the results.
func checkReads(t *testing.T, at string, m *ir.Module, o opt.Options, pass opt.Pass) {
	t.Helper()
	run := func(o opt.Options) *ir.Module {
		c := m.Clone()
		if err := opt.Pipeline(c, o, []opt.Pass{pass}, 1); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		return c
	}
	want := run(o)
	for field, vo := range variants(o) {
		if pass.Key(vo) == pass.Key(o) && !sameIR(run(vo), want) {
			t.Errorf("%s: changing %s changes the pass's output, but its Reads leaves the field out", at, field)
		}
	}
}
