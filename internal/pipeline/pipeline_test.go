package pipeline

import (
	"strings"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
)

func TestHistoryWellFormed(t *testing.T) {
	for _, p := range []Personality{GCC, LLVM} {
		h := History(p)
		if len(h) < 10 {
			t.Errorf("%s: history too short (%d commits)", p, len(h))
		}
		seen := map[string]bool{}
		regressions := 0
		for _, c := range h {
			if len(c.ID) != 12 {
				t.Errorf("%s: commit ID %q is not 12 hex chars", p, c.ID)
			}
			if seen[c.ID] {
				t.Errorf("%s: duplicate commit ID %s", p, c.ID)
			}
			seen[c.ID] = true
			if c.Component == "" || c.Desc == "" || len(c.Files) == 0 {
				t.Errorf("%s: commit %s missing metadata", p, c.ID)
			}
			if c.Apply == nil {
				t.Errorf("%s: commit %s has no Apply", p, c.ID)
			}
			if c.Regression {
				regressions++
			}
		}
		if regressions == 0 {
			t.Errorf("%s: history has no regression commits", p)
		}
		for _, c := range FutureFixes(p) {
			if seen[c.ID] {
				t.Errorf("%s: future fix %s collides with history", p, c.ID)
			}
		}
	}
}

func TestConfigAssembly(t *testing.T) {
	for _, p := range []Personality{GCC, LLVM} {
		for _, lvl := range Levels {
			cfg := New(p, lvl)
			if cfg.Name() == "" {
				t.Errorf("%s %s: empty name", p, lvl)
			}
			if len(cfg.schedule) == 0 {
				t.Errorf("%s %s: empty schedule", p, lvl)
			}
		}
	}
	// O0 must be minimal; O3 must be the largest schedule.
	if len(New(GCC, O0).schedule) >= len(New(GCC, O3).schedule) {
		t.Error("O0 schedule should be smaller than O3")
	}
}

func TestPersonalitiesDiffer(t *testing.T) {
	g := New(GCC, O3).Options()
	l := New(LLVM, O3).Options()
	if g.GlobalProp == l.GlobalProp {
		t.Error("personalities should differ in global-value analysis precision")
	}
	if g.FoldPtrCmpNonzeroOffset == l.FoldPtrCmpNonzeroOffset {
		t.Error("personalities should differ in pointer-compare folding")
	}
}

func TestVersionsDiffer(t *testing.T) {
	// The alias regression commit must change gcc-sim's -O3 behaviour.
	before := AtCommit(GCC, O3, 6).Options()
	after := AtCommit(GCC, O3, 7).Options()
	if before.Alias == after.Alias {
		t.Error("gcc commit 7 (alias rework) should degrade -O3 alias precision")
	}
	// ...but not -O1's.
	b1 := AtCommit(GCC, O1, 6).Options()
	a1 := AtCommit(GCC, O1, 7).Options()
	if b1.Alias != a1.Alias {
		t.Error("the alias regression is -O3 only")
	}
}

func TestFutureConfigStrongest(t *testing.T) {
	head := New(GCC, O3).Options()
	future := FutureConfig(GCC, O3).Options()
	if !future.ShiftNonzeroRelation || head.ShiftNonzeroRelation {
		t.Error("the shift-relation fix should only exist in the future config")
	}
	if future.Alias == opt.AliasConservative {
		t.Error("the future config should have the alias fix")
	}
}

// TestConfigNamesDistinguishVersions: the pre-history base, the latest
// version, and the future-fixes config carry pairwise distinct names, and
// the future one names its last fix (triage errors cite the config name).
func TestConfigNamesDistinguishVersions(t *testing.T) {
	for _, p := range []Personality{GCC, LLVM} {
		base := AtCommit(p, O3, 0).Name()
		latest := New(p, O3).Name()
		future := FutureConfig(p, O3).Name()
		if base == latest || latest == future || base == future {
			t.Errorf("%s: names not distinct: base %q, latest %q, future %q", p, base, latest, future)
		}
		fixes := FutureFixes(p)
		if last := fixes[len(fixes)-1].ID; !strings.Contains(future, "@"+last+" ") {
			t.Errorf("%s: future config named %q, want the last fix %s", p, future, last)
		}
	}
}

// TestAllConfigsCompileCorrectly compiles one instrumented program under
// every personality, level, and a sample of historical versions, verifying
// semantics each time.
func TestAllConfigsCompileCorrectly(t *testing.T) {
	prog := cgen.Generate(cgen.DefaultConfig(7))
	ins, err := instrument.Instrument(prog, instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lower.Lower(ins.Prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Execute(ref, ir.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var cfgs []*Config
	for _, p := range []Personality{GCC, LLVM} {
		for _, lvl := range Levels {
			cfgs = append(cfgs, New(p, lvl))
		}
		for _, k := range []int{0, len(History(p)) / 2} {
			cfgs = append(cfgs, AtCommit(p, O3, k))
		}
		cfgs = append(cfgs, FutureConfig(p, O3))
	}
	for _, cfg := range cfgs {
		m, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.CompileObserved(m, nil); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		got, err := ir.Execute(m, ir.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: exec: %v", cfg.Name(), err)
		}
		if got.Checksum != want.Checksum || got.ExitCode != want.ExitCode {
			t.Errorf("%s: semantics changed", cfg.Name())
		}
	}
}

// TestSeed111CompilesCleanly pins a campaign-discovered crash: jump
// threading used to retarget edges around a block whose materialized
// constants were used elsewhere, breaking SSA dominance (seed 111,
// llvm-sim -O3).
func TestSeed111CompilesCleanly(t *testing.T) {
	prog := cgen.Generate(cgen.DefaultConfig(111))
	ins, err := instrument.Instrument(prog, instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Personality{GCC, LLVM} {
		m, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := New(p, O3).CompileObserved(m, nil); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestCompactScheduledIdentically: every optimizing level of both
// personalities (at every history version) opens with the compact pass, and
// -O0 never runs it — compact is shared canonicalization, so a personality
// difference here would contaminate the differential oracle.
func TestCompactScheduledIdentically(t *testing.T) {
	for _, p := range []Personality{GCC, LLVM} {
		for commits := 0; commits <= len(History(p)); commits++ {
			for _, lvl := range Levels {
				sched := AtCommit(p, lvl, commits).Schedule()
				if lvl == O0 {
					for _, name := range sched {
						if name == "compact" {
							t.Fatalf("%s@%d %s: compact must not run at -O0", p, commits, lvl)
						}
					}
					continue
				}
				if len(sched) == 0 || sched[0] != "compact" {
					t.Fatalf("%s@%d %s: schedule does not open with compact: %v", p, commits, lvl, sched)
				}
			}
		}
	}
}
