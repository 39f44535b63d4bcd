package core

import (
	"strings"
	"testing"
	"testing/quick"

	"dcelens/internal/ast"
	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/sema"
)

func instrumented(t *testing.T, src string) *instrument.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	ins, err := instrument.Instrument(prog, instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestGroundTruthClassification(t *testing.T) {
	ins := instrumented(t, `
static int c = 0;
int main(void) {
  if (c) {
    c = 1;
  }
  if (c == 0) {
    c = 2;
  }
  return 0;
}`)
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Dead) != 1 {
		t.Fatalf("want 1 dead marker, got %v", truth.Dead)
	}
	if len(truth.Alive) != 1 {
		t.Fatalf("want 1 alive marker, got %v", truth.Alive)
	}
}

func TestCompileAndMarkerScan(t *testing.T) {
	// Note: the block must not store to c — `if (c) c = 1;` is exactly the
	// paper's Listing 6a, which both real compilers miss (and so do both
	// personalities, by design).
	ins := instrumented(t, `
static int c = 0;
static int g;
int main(void) {
  if (c) {
    g = 1;
  }
  return 0;
}`)
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}

	// At -O0 the dead marker survives (no constant propagation through the
	// global); at -O2 both personalities eliminate it.
	o0, err := Compile(ins, pipeline.New(pipeline.GCC, pipeline.O0), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(o0.Missed(truth)) != 1 {
		t.Errorf("-O0 should miss the marker; asm:\n%s", o0.Asm)
	}
	if err := o0.VerifyAgainstTruth(truth); err != nil {
		t.Fatal(err)
	}

	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		o2, err := Compile(ins, pipeline.New(p, pipeline.O2), Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if len(o2.Missed(truth)) != 0 {
			t.Errorf("%s -O2 should eliminate the dead marker:\n%s", p, o2.Asm)
		}
		if err := o2.VerifyAgainstTruth(truth); err != nil {
			t.Fatal(err)
		}
		if errs := o2.SoundnessError(truth); len(errs) > 0 {
			t.Errorf("%s -O2 eliminated live markers: %v", p, errs)
		}
	}
}

// TestListing1Shape reproduces the paper's illustrative example: GCC-sim
// folds the pointer comparison but not the flow-sensitive global check;
// LLVM-sim the other way around (§2, Listings 1-2).
func TestListing1Shape(t *testing.T) {
	src := `
char a;
char b[2];
static int c = 0;
static int g;
int main(void) {
  char *d = &a;
  char *e = &b[1];
  if (d == e) {
    g = 1;
  }
  if (c) {
    b[0] = 1;
  }
  c = 0;
  return 0;
}`
	ins := instrumented(t, src)
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Dead) != 2 {
		t.Fatalf("both if bodies should be dead, got %v", truth.Dead)
	}
	ptrMarker, flowMarker := truth.Dead[0], truth.Dead[1]
	if ins.Markers[0].Name != ptrMarker {
		ptrMarker, flowMarker = flowMarker, ptrMarker
	}

	gccC, err := Compile(ins, pipeline.New(pipeline.GCC, pipeline.O3), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	llvmC, err := Compile(ins, pipeline.New(pipeline.LLVM, pipeline.O3), Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	// GCC-sim: folds &a == &b[1] (match.pd commit), misses if(c) because
	// its global analysis is flow-insensitive and a store c = 0 exists.
	if gccC.Alive[ptrMarker] {
		t.Errorf("gcc-sim should eliminate the pointer-comparison marker")
	}
	if !gccC.Alive[flowMarker] {
		t.Errorf("gcc-sim should miss the flow-sensitive marker (Listing 1c)")
	}
	// LLVM-sim: EarlyCSE regression keeps nonzero-offset compares, but the
	// same-constant store does not defeat its global analysis.
	if !llvmC.Alive[ptrMarker] {
		t.Errorf("llvm-sim should miss the pointer-comparison marker (Listing 1b)")
	}
	if llvmC.Alive[flowMarker] {
		t.Errorf("llvm-sim should eliminate the store-same-constant marker")
	}

	// Differential testing flags both directions.
	if d := DiffMissed(gccC, llvmC, truth); len(d) != 1 || d[0] != flowMarker {
		t.Errorf("gcc misses vs llvm: %v", d)
	}
	if d := DiffMissed(llvmC, gccC, truth); len(d) != 1 || d[0] != ptrMarker {
		t.Errorf("llvm misses vs gcc: %v", d)
	}
}

// TestPrimaryNestedDead reproduces Listing 5 / Figure 2: a dead nested if
// inside a dead outer if. When both are missed, only the outer marker is
// primary; when the outer is detected, the inner becomes primary.
func TestPrimaryNestedDead(t *testing.T) {
	ins := instrumented(t, `
static int e1 = 0;
static int e2 = 1;
int main(void) {
  if (e1) {        // always false
    if (e2) {      // dead because the outer block is dead
      e2 = 2;
    }
    e1 = 3;
  }
  return 0;
}`)
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Dead) != 2 {
		t.Fatalf("want 2 dead markers, got %v", truth.Dead)
	}
	g, err := BuildMarkerCFG(ins)
	if err != nil {
		t.Fatal(err)
	}
	outer := ins.Markers[0].Name
	inner := ins.Markers[1].Name

	// Both missed: only the outer is primary (B2 in Figure 2).
	prim := g.Primary(truth, []string{outer, inner})
	if len(prim) != 1 || prim[0] != outer {
		t.Errorf("both missed: primary = %v, want [%s] (preds: %v)", prim, outer, g.Preds)
	}
	// Outer detected, inner missed: the inner becomes primary.
	prim = g.Primary(truth, []string{inner})
	if len(prim) != 1 || prim[0] != inner {
		t.Errorf("outer detected: primary = %v, want [%s]", prim, inner)
	}
}

func TestMarkerCFGInterprocedural(t *testing.T) {
	// The entry marker of an uncalled function has no predecessors and is
	// primary when missed; the entry marker of a called function inherits
	// the call site's preceding marker.
	ins := instrumented(t, `
static int g;
static void callee(void) { g = 1; }
static void orphan(void) { g = 2; }
int main(void) {
  if (g) {
    callee();
  }
  return 0;
}`)
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildMarkerCFG(ins)
	if err != nil {
		t.Fatal(err)
	}
	var calleeEntry, orphanEntry, thenMarker string
	for _, m := range ins.Markers {
		switch {
		case m.Site == "func-entry" && m.Func == "callee":
			calleeEntry = m.Name
		case m.Site == "func-entry" && m.Func == "orphan":
			orphanEntry = m.Name
		case m.Site == "if-then":
			thenMarker = m.Name
		}
	}
	if preds := g.Preds[calleeEntry]; len(preds) != 1 || preds[0] != thenMarker {
		t.Errorf("callee entry preds = %v, want [%s]", preds, thenMarker)
	}
	if preds := g.Preds[orphanEntry]; len(preds) != 0 {
		t.Errorf("orphan entry preds = %v, want none", preds)
	}
	// All three are dead; if all are missed, primaries are the if-then
	// marker (pred is the live root) and the orphan entry (no preds).
	missed := []string{calleeEntry, orphanEntry, thenMarker}
	prim := g.Primary(truth, missed)
	want := map[string]bool{thenMarker: true, orphanEntry: true}
	if len(prim) != 2 || !want[prim[0]] || !want[prim[1]] {
		t.Errorf("primary = %v, want {%s, %s}", prim, thenMarker, orphanEntry)
	}
}

// TestCompilersSoundOnCorpus: neither personality may eliminate an alive
// marker or change program behaviour, at any level, on random programs.
func TestCompilersSoundOnCorpus(t *testing.T) {
	configs := []*pipeline.Config{
		pipeline.New(pipeline.GCC, pipeline.O1),
		pipeline.New(pipeline.GCC, pipeline.O3),
		pipeline.New(pipeline.LLVM, pipeline.O1),
		pipeline.New(pipeline.LLVM, pipeline.O3),
	}
	f := func(seed int64) bool {
		prog := cgen.Generate(cgen.DefaultConfig(seed))
		ins, err := instrument.Instrument(prog, instrument.Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		truth, err := GroundTruth(ins)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, cfg := range configs {
			comp, err := Compile(ins, cfg, Hooks{})
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, cfg.Name(), err)
				return false
			}
			if errs := comp.SoundnessError(truth); len(errs) > 0 {
				t.Logf("seed %d: %s eliminated live markers %v\nprogram:\n%s",
					seed, cfg.Name(), errs, ast.Print(ins.Prog))
				return false
			}
			if err := comp.VerifyAgainstTruth(truth); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHigherLevelsEliminateMore checks the Table 1 monotonicity on a small
// corpus: the fraction of dead markers missed must not grow with the level
// (modulo the O3 regressions, which are small; we compare O0 vs O1 vs O2).
func TestHigherLevelsEliminateMore(t *testing.T) {
	missedAt := map[pipeline.Level]int{}
	totalDead := 0
	for seed := int64(0); seed < 8; seed++ {
		prog := cgen.Generate(cgen.DefaultConfig(seed))
		ins, err := instrument.Instrument(prog, instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(ins)
		if err != nil {
			t.Fatal(err)
		}
		totalDead += len(truth.Dead)
		for _, lvl := range []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2} {
			comp, err := Compile(ins, pipeline.New(pipeline.LLVM, lvl), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			missedAt[lvl] += len(comp.Missed(truth))
		}
	}
	if totalDead == 0 {
		t.Fatal("no dead markers generated")
	}
	if !(missedAt[pipeline.O0] > missedAt[pipeline.O1] && missedAt[pipeline.O1] >= missedAt[pipeline.O2]) {
		t.Errorf("missed counts not monotone: O0=%d O1=%d O2=%d (dead=%d)",
			missedAt[pipeline.O0], missedAt[pipeline.O1], missedAt[pipeline.O2], totalDead)
	}
	// O0 should miss the vast majority (paper: 85%), O2 a small minority.
	if missedAt[pipeline.O0]*2 < totalDead {
		t.Errorf("O0 missed only %d of %d dead markers; expected most", missedAt[pipeline.O0], totalDead)
	}
	if missedAt[pipeline.O2]*2 > totalDead {
		t.Errorf("O2 missed %d of %d dead markers; expected a small fraction", missedAt[pipeline.O2], totalDead)
	}
}

func TestAsmContainsMarkers(t *testing.T) {
	ins := instrumented(t, `
static int c;
int main(void) {
  if (c) {
    c = 1;
  }
  return 0;
}`)
	comp, err := Compile(ins, pipeline.New(pipeline.GCC, pipeline.O0), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Asm, "call "+ins.Markers[0].Name) {
		t.Errorf("marker call missing from -O0 assembly:\n%s", comp.Asm)
	}
	if !strings.Contains(comp.Asm, ".data") || !strings.Contains(comp.Asm, "c:") {
		t.Errorf("data section missing:\n%s", comp.Asm)
	}
}
