package opt

import (
	"testing"

	"dcelens/internal/ir"
)

func TestLICMHoistsInvariantLoad(t *testing.T) {
	m := buildIR(t, `
static int g = 7;
static int sum = 0;
int main(void) {
  for (int i = 0; i < 8; i++) {
    sum += g;
  }
  return sum;
}`)
	runPasses(t, m, fullOpts(), Mem2Reg, LICM)
	// The load of g should now be outside the loop: exactly one load of g.
	loads := 0
	main := m.LookupFunc("main")
	dt := ir.Dominators(main)
	loops := ir.NaturalLoops(main, dt)
	if len(loops) == 0 {
		t.Fatal("loop disappeared?")
	}
	for _, b := range main.Blocks {
		inLoop := loops[0].Contains(b)
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				loc := ResolveLoc(in.Args[0])
				if loc.G != nil && loc.G.Name == "g" {
					loads++
					if inLoop {
						t.Errorf("load of g still inside the loop:\n%s", main)
					}
				}
			}
		}
	}
	if got := exec(t, m); got.ExitCode != 56 {
		t.Fatalf("exit %d, want 56", got.ExitCode)
	}
}

func TestLICMRespectsAliasingStores(t *testing.T) {
	m := buildIR(t, `
static int g = 1;
static int sum = 0;
int main(void) {
  for (int i = 0; i < 4; i++) {
    sum += g;
    g = g + 1; // g is written in the loop: its load must stay
  }
  return sum;
}`)
	runPasses(t, m, fullOpts(), Mem2Reg, LICM)
	if got := exec(t, m); got.ExitCode != 1+2+3+4 {
		t.Fatalf("exit %d, want 10", got.ExitCode)
	}
}

func TestUnrollCountedLoop(t *testing.T) {
	m := buildIR(t, `
static int sum = 0;
int main(void) {
  for (int i = 0; i < 5; i++) {
    sum += i;
  }
  return sum;
}`)
	o := fullOpts()
	o.UnrollMaxTrip = 8
	runPasses(t, m, o, Mem2Reg, Unroll, SCCP, InstCombine, SimplifyCFG, DCE)
	if got := exec(t, m); got.ExitCode != 10 {
		t.Fatalf("exit %d, want 10", got.ExitCode)
	}
	// After unrolling and folding there should be no loop left.
	main := m.LookupFunc("main")
	dt := ir.Dominators(main)
	if loops := ir.NaturalLoops(main, dt); len(loops) != 0 {
		t.Errorf("loop survived unrolling:\n%s", main)
	}
}

func TestUnrollEnablesDCE(t *testing.T) {
	// The loop writes c[0] and c[1]; after full unrolling, forwarding
	// proves c[0] non-null — the shape of paper Listing 9e.
	m := buildIR(t, `
void DCEMarker0(void);
static int a[2];
static int b;
static int *c[2];
int main(void) {
  for (int i = 0; i < 2; i++) {
    c[i] = &a[1];
  }
  if (!c[0]) {
    DCEMarker0();
  }
  return 0;
}`)
	o := fullOpts()
	o.UnrollMaxTrip = 8
	runPasses(t, m, o, stdUnrollSchedule()...)
	if markerSurvives(m, "DCEMarker0") {
		t.Errorf("unroll+forwarding failed to prove c[0] != 0:\n%s", m)
	}

	// With widened (vectorized) pointer stores, forwarding is blocked and
	// the marker survives — the GCC -O3 miss.
	m2 := buildIR(t, `
void DCEMarker0(void);
static int a[2];
static int b;
static int *c[2];
int main(void) {
  for (int i = 0; i < 2; i++) {
    c[i] = &a[1];
  }
  if (!c[0]) {
    DCEMarker0();
  }
  return 0;
}`)
	o.WidenPointerLoopStores = true
	runPasses(t, m2, o, append([]Pass{WidenStores}, stdUnrollSchedule()...)...)
	if !markerSurvives(m2, "DCEMarker0") {
		t.Errorf("widened stores should block the fold (paper Listing 9e):\n%s", m2)
	}
}

func stdUnrollSchedule() []Pass {
	return []Pass{Mem2Reg, Unroll, GVN, SCCP, InstCombine, SimplifyCFG, GVN, DCE, SimplifyCFG}
}

func TestVRPFoldsRangeComparisons(t *testing.T) {
	m := buildIR(t, `
void DCEMarker0(void);
static int g;
int main(void) {
  for (int i = 0; i < 10; i++) {
    if (i > 100) {
      DCEMarker0(); // i is in [0, 10]: never
    }
    g += i;
  }
  return 0;
}`)
	o := fullOpts()
	o.ShiftNonzeroRelation = true
	runPasses(t, m, o, Mem2Reg, VRP, SCCP, SimplifyCFG, DCE)
	if markerSurvives(m, "DCEMarker0") {
		t.Errorf("VRP failed to bound the loop counter:\n%s", m)
	}
}

func TestVRPShiftRelationKnob(t *testing.T) {
	src := `
void DCEMarker0(void);
static int g;
int main(void) {
  for (int i = 1; i < 4; i++) {
    int d = i << 1; // in [2, 8]: never zero
    if (d == 0) {
      DCEMarker0();
    }
    g += d;
  }
  return 0;
}`
	m := buildIR(t, src)
	o := fullOpts()
	o.ShiftNonzeroRelation = true
	runPasses(t, m, o, Mem2Reg, VRP, SCCP, SimplifyCFG, DCE)
	if markerSurvives(m, "DCEMarker0") {
		t.Errorf("shift relation enabled but not used:\n%s", m)
	}

	m2 := buildIR(t, src)
	o.ShiftNonzeroRelation = false
	o.UnrollMaxTrip = 0
	runPasses(t, m2, o, Mem2Reg, VRP, SCCP, SimplifyCFG, DCE)
	if !markerSurvives(m2, "DCEMarker0") {
		t.Errorf("marker should survive without the shift relation (paper Listing 9a)")
	}
}

func TestJumpThreading(t *testing.T) {
	// The classic diamond: the value of x is known per-predecessor, so
	// each predecessor can bypass the test.
	m := buildIR(t, `
void DCEMarker0(void);
static int cond;
int main(void) {
  int x;
  if (cond) {
    x = 1;
  } else {
    x = 0;
  }
  if (x == 2) {
    DCEMarker0(); // unreachable on every threaded path
  }
  return 0;
}`)
	runPasses(t, m, fullOpts(), Mem2Reg, JumpThread, SCCP, SimplifyCFG, DCE)
	if markerSurvives(m, "DCEMarker0") {
		t.Errorf("jump threading failed:\n%s", m)
	}
}

func TestUnswitchHoistsInvariantBranch(t *testing.T) {
	m := buildIR(t, `
void DCEMarker0(void);
static int flag;
static int g;
int main(void) {
  int f = flag;
  for (int i = 0; i < 4; i++) {
    if (f) {
      g += i;
    } else {
      g -= i;
    }
  }
  DCEMarker0();
  return g;
}`)
	o := fullOpts()
	runPasses(t, m, o, Mem2Reg, Unswitch, SimplifyCFG)
	// Two loops should now exist (true and false versions).
	main := m.LookupFunc("main")
	dt := ir.Dominators(main)
	loops := ir.NaturalLoops(main, dt)
	if len(loops) != 2 {
		t.Errorf("expected 2 loops after unswitching, got %d:\n%s", len(loops), main)
	}
	if got := exec(t, m); got.ExitCode != -6 {
		t.Errorf("exit %d, want -6", got.ExitCode)
	}
}

// TestUnswitchAggressiveBlocksFolding reproduces the Listing 7/8a shape:
// aggressive unswitching launders the condition through an opaque slot;
// without a later mem2reg round, SCCP cannot fold the preheader branch and
// the dead loop copy (with its marker) survives.
func TestUnswitchAggressiveBlocksFolding(t *testing.T) {
	src := `
void DCEMarker0(void);
static int b = 0;
static int g;
int main(void) {
  int bb = b;
  for (int i = 0; i < 4; i++) {
    if (bb) {
      DCEMarker0(); // dead: b == 0 always
    }
    g += i;
  }
  return 0;
}`
	// The regression only manifests when unswitching runs before the
	// interprocedural constant propagation would have folded the
	// condition — exactly the pass-ordering interaction the paper
	// describes. Clean unswitch + later const prop: marker eliminated.
	m := buildIR(t, src)
	o := fullOpts()
	o.AggressiveUnswitch = false
	runPasses(t, m, o, Mem2Reg, Unswitch, IPSCCP, SCCP, InstCombine, SimplifyCFG, DCE)
	if markerSurvives(m, "DCEMarker0") {
		t.Errorf("clean unswitch: marker should be eliminated:\n%s", m)
	}

	// Aggressive unswitch without a post-unswitch mem2reg: marker missed.
	// A single schedule iteration models the regressed pass manager (a
	// second iteration would re-run mem2reg and heal the laundered slot).
	m2 := buildIR(t, src)
	o.AggressiveUnswitch = true
	if err := Pipeline(m2, o, []Pass{Mem2Reg, Unswitch, IPSCCP, SCCP, InstCombine, SimplifyCFG, DCE}, 1); err != nil {
		t.Fatal(err)
	}
	if !markerSurvives(m2, "DCEMarker0") {
		t.Errorf("aggressive unswitch should block folding (paper Listings 7/8a):\n%s", m2)
	}

	// The fixed schedule moves unswitching after the folding passes: the
	// condition is already constant, the unswitcher skips it (constant
	// branches are SimplifyCFG's job), and no freeze is ever inserted.
	m3 := buildIR(t, src)
	if err := Pipeline(m3, o, []Pass{Mem2Reg, IPSCCP, SCCP, InstCombine, SimplifyCFG, Unswitch, SCCP, SimplifyCFG, DCE}, 1); err != nil {
		t.Fatal(err)
	}
	if markerSurvives(m3, "DCEMarker0") {
		t.Errorf("unswitch-after-folding should leave nothing to unswitch:\n%s", m3)
	}
}

// TestLoopPassesPreserveSemantics: the full pipeline with loop passes must
// preserve observable behaviour on random programs.
func TestLoopPassesPreserveSemantics(t *testing.T) {
	o := fullOpts()
	o.UnrollMaxTrip = 8
	passes := []Pass{
		Mem2Reg, IPSCCP, SCCP, InstCombine, SimplifyCFG, Inline,
		LICM, Unroll, Unswitch, JumpThread, VRP,
		GVN, DSE, DCE, SimplifyCFG, GlobalDCE,
	}
	checkSemanticsPreserved(t, o, passes, 30)
}

func TestLoopPassesAggressiveKnobsPreserveSemantics(t *testing.T) {
	o := fullOpts()
	o.UnrollMaxTrip = 6
	o.AggressiveUnswitch = true
	o.WidenPointerLoopStores = true
	passes := []Pass{
		Mem2Reg, IPSCCP, WidenStores, Unswitch, SCCP, InstCombine,
		SimplifyCFG, Inline, LICM, Unroll, JumpThread, VRP,
		GVN, DSE, DCE, SimplifyCFG, GlobalDCE,
	}
	checkSemanticsPreserved(t, o, passes, 25)
}
