package opt_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
)

// reuseSeeds is how many seeds the reuse tests compile; a race build
// compiles fewer (race_test.go).
var reuseSeeds int64 = 40

var (
	reuseOnce sync.Once
	reuseMods []*ir.Module
	reuseErr  error
)

// reuseModules returns, for each seed, its raw lowering and the module each
// of the ten default configurations leaves: 440 modules for 40 seeds.
func reuseModules(t *testing.T) []*ir.Module {
	t.Helper()
	reuseOnce.Do(func() {
		for seed := int64(1); seed <= reuseSeeds; seed++ {
			ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
			if err != nil {
				reuseErr = err
				return
			}
			raw, err := lower.Lower(ins.Prog)
			if err != nil {
				reuseErr = err
				return
			}
			reuseMods = append(reuseMods, raw)
			for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
				for _, lvl := range pipeline.Levels {
					m, err := lower.Lower(ins.Prog)
					if err == nil {
						err = pipeline.New(p, lvl).CompileObserved(m, nil)
					}
					if err != nil {
						reuseErr = fmt.Errorf("seed %d: %w", seed, err)
						return
					}
					reuseMods = append(reuseMods, m)
				}
			}
		}
	})
	if reuseErr != nil {
		t.Fatal(reuseErr)
	}
	return reuseMods
}

// growThenShrink returns xs ordered by size, smallest first, followed by
// the same items largest first, so that tables reused across them grow to
// the largest and then serve ever smaller ones.
func growThenShrink[T any](xs []T, size func(T) int) []T {
	up := slices.Clone(xs)
	slices.SortStableFunc(up, func(a, b T) int { return cmp.Compare(size(a), size(b)) })
	down := slices.Clone(up)
	slices.Reverse(down)
	return append(up, down...)
}

// referenceLoops is the map-based natural loop finder that ir.LoopFinder
// replaced, kept as the reference it must agree with.
func referenceLoops(t *ir.DomTree) []*referenceLoop {
	byHeader := map[*ir.Block]*referenceLoop{}
	for _, b := range t.RPO() {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &referenceLoop{header: s, blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
				}
				l.latches = append(l.latches, b)
				var stack []*ir.Block
				if !l.blocks[b] {
					l.blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range x.Preds {
						if !t.Reachable(p) {
							continue
						}
						if !l.blocks[p] {
							l.blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*referenceLoop
	for _, b := range t.RPO() {
		if l, ok := byHeader[b]; ok {
			loops = append(loops, l)
		}
	}
	return loops
}

type referenceLoop struct {
	header  *ir.Block
	blocks  map[*ir.Block]bool
	latches []*ir.Block
}

// sameLoops reports whether the loops found equal the reference's: the same
// headers in the same order, the same latches in the same order, and the
// same block sets, with nothing in a set beyond its loop's blocks.
func sameLoops(f *ir.Func, got []*ir.Loop, want []*referenceLoop) bool {
	if len(got) != len(want) {
		return false
	}
	for i, l := range got {
		w := want[i]
		if l.Header != w.header || !slices.Equal(l.Latches, w.latches) {
			return false
		}
		members := 0
		for _, in := range l.Blocks {
			if in {
				members++
			}
		}
		if members != len(w.blocks) {
			return false
		}
		for _, b := range f.Blocks {
			if l.Contains(b) != w.blocks[b] {
				return false
			}
		}
	}
	return true
}

// TestCFGAnalysesReuse: one dominator tree, reachability table and loop
// finder serve every function of the modules, which grow and then shrink;
// each result equals a fresh build, and the loops equal the map-based
// reference's.
func TestCFGAnalysesReuse(t *testing.T) {
	var funcs []*ir.Func
	for _, m := range reuseModules(t) {
		for _, f := range m.Funcs {
			if !f.External {
				funcs = append(funcs, f)
			}
		}
	}
	var (
		dt    ir.DomTree
		lf    ir.LoopFinder
		reach []bool
	)
	for _, f := range growThenShrink(funcs, (*ir.Func).NumBlocks) {
		dt.Rebuild(f)
		fresh := ir.Dominators(f)
		if !slices.Equal(dt.RPO(), f.ReversePostorder()) || !slices.Equal(dt.RPO(), fresh.RPO()) {
			t.Fatalf("%s: reused postorder differs from a fresh one", f.Name)
		}
		for _, b := range f.Blocks {
			if dt.Reachable(b) != fresh.Reachable(b) || !slices.Equal(dt.Children(b), fresh.Children(b)) {
				t.Fatalf("%s: reused dominator tree differs from a fresh one at b%d", f.Name, b.ID)
			}
		}
		reach = f.ReachableInto(reach)
		if !slices.Equal(reach, f.Reachable()) {
			t.Fatalf("%s: reused reachability differs from a fresh one", f.Name)
		}
		want := referenceLoops(fresh)
		if !sameLoops(f, lf.Find(f, &dt), want) {
			t.Fatalf("%s: reused loop finder differs from the reference", f.Name)
		}
		if !sameLoops(f, ir.NaturalLoops(f, fresh), want) {
			t.Fatalf("%s: NaturalLoops differs from the reference", f.Name)
		}
	}
}

// TestModuleAnalysesReuse: one access index and one set of escape tables
// serve every module, which grow and then shrink, and one exposure table
// every function; each result equals a fresh computation.
func TestModuleAnalysesReuse(t *testing.T) {
	values := func(m *ir.Module) int {
		n := 0
		for _, f := range m.Funcs {
			n = max(n, f.NumValues())
		}
		return n
	}
	reused, tables := opt.NewAccessIndex(), new(opt.EscapeTables)
	var exposed []bool
	for _, m := range growThenShrink(reuseModules(t), values) {
		reused.Rebuild(m)
		fresh := opt.NewAccessIndex()
		fresh.Rebuild(m)
		if !reflect.DeepEqual(reused.Info(), fresh.Info()) {
			t.Fatalf("%s: reused access index differs from a fresh one", m.Funcs[0].Name)
		}
		tables.Compute(m)
		var flags []bool
		for _, g := range m.Globals {
			flags = append(flags, g.Escapes, g.AddrExposed)
		}
		new(opt.EscapeTables).Compute(m)
		for i, g := range m.Globals {
			if g.Escapes != flags[2*i] || g.AddrExposed != flags[2*i+1] {
				t.Fatalf("global %s: escape flags from reused tables differ from fresh ones", g.Name)
			}
		}
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			exposed = opt.ExposedValues(f, exposed)
			if !slices.Equal(exposed, opt.ExposedValues(f, nil)) {
				t.Fatalf("%s: reused exposure table differs from a fresh one", f.Name)
			}
		}
	}
}
