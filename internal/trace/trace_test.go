package trace_test

import (
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/pipeline"
	"dcelens/internal/trace"
)

// tracedCompile runs one generated program through a traced compilation.
func tracedCompile(t *testing.T, seed int64, p pipeline.Personality, lvl pipeline.Level) (*instrument.Program, *core.Truth, *core.Compilation, *trace.Profile) {
	t.Helper()
	ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	comp, err := core.Compile(ins, pipeline.New(p, lvl), core.Hooks{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	return ins, truth, comp, rec.Profile()
}

// TestRecorderAttributesEveryElimination checks the provenance invariant:
// every marker of the instrumentation table is either surviving at the end
// of the pipeline or attributed to exactly one killer pass instance, and
// the trace's final surviving set matches the assembly oracle.
func TestRecorderAttributesEveryElimination(t *testing.T) {
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		ins, _, comp, prof := tracedCompile(t, 7, p, pipeline.O3)
		prov := prof.Provenance()
		for _, m := range ins.Markers {
			_, killed := prov.KillerOf(m.Name)
			if comp.Alive[m.Name] == killed {
				t.Errorf("%s: marker %s: alive=%v killed=%v — want exactly one",
					p, m.Name, comp.Alive[m.Name], killed)
			}
		}
		if len(prov.Markers) != len(prov.Killer) {
			t.Errorf("%s: provenance slice/map mismatch: %d vs %d", p, len(prov.Markers), len(prov.Killer))
		}
		for _, name := range prof.FinalSurviving {
			if !comp.Alive[name] {
				t.Errorf("%s: %s survives in trace but not in assembly", p, name)
			}
		}
		if len(prof.FinalSurviving) != len(comp.Alive) {
			t.Errorf("%s: surviving count mismatch: trace %d, asm %d", p, len(prof.FinalSurviving), len(comp.Alive))
		}
	}
}

// TestRecorderPassInstances checks that profile entries carry coherent
// schedule positions and that eliminations recorded per pass agree with
// the provenance.
func TestRecorderPassInstances(t *testing.T) {
	_, _, _, prof := tracedCompile(t, 11, pipeline.LLVM, pipeline.O3)
	cfg := pipeline.New(pipeline.LLVM, pipeline.O3)
	sched := cfg.Schedule()
	perPass := map[string]trace.PassRef{}
	for i := range prof.Passes {
		pp := &prof.Passes[i]
		if pp.Ref.ScheduleIndex < 0 || pp.Ref.ScheduleIndex >= len(sched) {
			t.Fatalf("pass %s: schedule index %d out of range", pp.Ref.Pass, pp.Ref.ScheduleIndex)
		}
		if sched[pp.Ref.ScheduleIndex] != pp.Ref.Pass {
			t.Fatalf("pass %s at index %d, schedule says %s", pp.Ref.Pass, pp.Ref.ScheduleIndex, sched[pp.Ref.ScheduleIndex])
		}
		if pp.Ref.Iteration < 0 || pp.Ref.Iteration >= cfg.Iterations() {
			t.Fatalf("pass %s: iteration %d out of range", pp.Ref.Pass, pp.Ref.Iteration)
		}
		for _, m := range pp.Eliminated {
			perPass[m] = pp.Ref
		}
	}
	prov := prof.Provenance()
	if len(perPass) == 0 {
		t.Fatal("no eliminations recorded in any pass profile")
	}
	for m, ref := range perPass {
		got, ok := prov.KillerOf(m)
		if !ok || got != ref {
			t.Errorf("marker %s: per-pass says %v, provenance says %v (ok=%v)", m, ref, got, ok)
		}
	}
}

// TestFrontendAttribution: markers absent at pipeline entry are owned by
// the frontend pseudo pass.
func TestFrontendAttribution(t *testing.T) {
	ins, _, _, prof := tracedCompile(t, 7, pipeline.GCC, pipeline.O0)
	initial := map[string]bool{}
	for _, m := range prof.InitialSurviving {
		initial[m] = true
	}
	prov := prof.Provenance()
	for _, m := range ins.Markers {
		if initial[m.Name] {
			continue
		}
		ref, ok := prov.KillerOf(m.Name)
		if !ok || !ref.IsFrontend() {
			t.Errorf("marker %s absent at entry: killer %v ok=%v, want frontend", m.Name, ref, ok)
		}
	}
}

func TestComponentOf(t *testing.T) {
	cases := map[string]string{
		"sccp":             "Constant Propagation",
		"ipsccp":           "Constant Propagation",
		"gvn":              "Value Numbering",
		"simplifycfg":      "Control Flow Graph Analysis",
		"compact":          "Control Flow Graph Analysis",
		"globaldce":        "Dead Code Elimination",
		"unswitch":         "Loop Transformations",
		"widen-stores":     "Loop Transformations",
		"localize-globals": "Value Propagation",
		"frontend":         "C-family Frontend",
		"nonexistent-pass": "Other",
	}
	for pass, want := range cases {
		if got := trace.ComponentOf(pass); got != want {
			t.Errorf("ComponentOf(%q) = %q, want %q", pass, got, want)
		}
	}
}

func TestCompatible(t *testing.T) {
	// An alias-precision regression is realized through value numbering
	// and cleanup, not through, say, inlining.
	if !trace.Compatible("Alias Analysis", "Value Numbering") {
		t.Error("Alias Analysis should accept Value Numbering killers")
	}
	if !trace.Compatible("Alias Analysis", "Dead Code Elimination") {
		t.Error("Alias Analysis should accept Dead Code Elimination killers")
	}
	if trace.Compatible("Alias Analysis", "Inlining") {
		t.Error("Alias Analysis should reject Inlining killers")
	}
	if trace.Compatible("Interprocedural SRoA", "Constant Propagation") {
		t.Error("Interprocedural SRoA should reject Constant Propagation killers")
	}
	// Unmapped components require exact match.
	if !trace.Compatible("Target Info", "Target Info") || trace.Compatible("Target Info", "Inlining") {
		t.Error("unmapped components must match exactly")
	}
}
