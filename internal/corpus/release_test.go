package corpus

import (
	"strings"
	"testing"

	"dcelens/internal/core"
)

// TestCampaignKeepsNoModule: a finished campaign keeps each unit's
// assembly but no module, whether it ran plain, with the trace and
// remarks, or under VerifySemantics (which executes each module before
// the campaign lets it go), and VerifyAgainstTruth still checks every
// unit by recompiling it. The check refuses assembly the recompile does
// not reproduce, reports a miscompile against a wrong truth, and refuses
// a compilation that has neither a module nor a program.
func TestCampaignKeepsNoModule(t *testing.T) {
	for _, o := range []Options{
		{Programs: 3, BaseSeed: 40},
		{Programs: 3, BaseSeed: 40, Remarks: true, Trace: true},
		{Programs: 3, BaseSeed: 40, VerifySemantics: true},
	} {
		c, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		units := 0
		for _, pr := range c.Programs {
			for key, an := range pr.PerCfg {
				units++
				comp := an.Compilation
				name := comp.Config.Name()
				if comp.Module != nil {
					t.Errorf("trace=%v remarks=%v verify=%v: seed %d %s: the campaign keeps its module",
						o.Trace, o.Remarks, o.VerifySemantics, pr.Seed, key)
				}
				if err := comp.VerifyAgainstTruth(pr.Truth); err != nil {
					t.Errorf("seed %d %s: %v", pr.Seed, key, err)
				}

				tampered := *comp
				asm := []byte(comp.Asm)
				asm[len(asm)/2]++
				tampered.Asm = string(asm)
				if err := tampered.VerifyAgainstTruth(pr.Truth); err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("seed %d %s: changed assembly: got %v, want an error naming %s", pr.Seed, key, err, name)
				}

				wrong := *pr.Truth
				wrong.Checksum++
				if err := comp.VerifyAgainstTruth(&wrong); err == nil || !strings.Contains(err.Error(), "MISCOMPILE") {
					t.Errorf("seed %d %s: changed checksum: got %v, want a miscompile", pr.Seed, key, err)
				}

				bare := &core.Compilation{Config: comp.Config, Asm: comp.Asm, Alive: comp.Alive}
				if err := bare.VerifyAgainstTruth(pr.Truth); err == nil {
					t.Errorf("seed %d %s: a compilation with no module and no program verified", pr.Seed, key)
				}
			}
		}
		if units != o.Programs*10 {
			t.Errorf("%d units, want %d", units, o.Programs*10)
		}
	}
}
