package corpus

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"dcelens/internal/core"
	"dcelens/internal/harness"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
)

// unitResults maps each (seed, config) unit of a campaign to what it
// produced: its missed counts, or its failure's kind, message and
// signature.
func unitResults(c *Campaign) map[string]string {
	out := map[string]string{}
	for _, so := range c.Outcomes {
		if so == nil {
			continue
		}
		for _, cf := range so.Configs {
			key := ConfigKey{cf.Personality, cf.Level}
			out[fmt.Sprintf("%d %s", so.Seed, key)] = fmt.Sprintf("missed=%d primary=%d", cf.Missed, cf.Primary)
		}
		for _, f := range so.Failures {
			out[fmt.Sprintf("%d %s", f.Seed, f.Config)] = fmt.Sprintf("%s | %s | %s", f.Kind, f.Message, f.Signature)
		}
	}
	return out
}

// checkAsAlone runs o as one campaign, whose seeds share compile work, and
// as ten one-configuration campaigns, which cannot share, and requires
// every unit to come out the same. It returns the shared campaign's unit
// results.
func checkAsAlone(t *testing.T, o Options) map[string]string {
	t.Helper()
	c, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	got := unitResults(c)
	want := map[string]string{}
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, l := range pipeline.Levels {
			one := o
			one.Personalities, one.Levels = []pipeline.Personality{p}, []pipeline.Level{l}
			c, err := Run(one)
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(want, unitResults(c))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d units in the shared campaign, %d in the one-configuration ones", len(got), len(want))
	}
	for unit, w := range want {
		if got[unit] != w {
			t.Errorf("%s: shared %q, alone %q", unit, got[unit], w)
		}
	}
	return got
}

// pausedUnits runs a seed's prepare stage and returns its units' paused
// compiles: nil entries compile alone.
func pausedUnits(t *testing.T, o Options, seed int64) []*core.Paused {
	t.Helper()
	o.fill()
	h := &harness.Harness{StepBudget: o.StepBudget, Faults: o.Faults}
	j := &seedJob{o: &o, h: h, seed: seed, cfgs: o.configKeys()}
	var lw *core.Lowering
	j.r, lw = buildProgram(o, h, seed, &slotBuf{o: &o}, 1)
	if j.r.Err != nil {
		t.Fatal(j.r.Err)
	}
	j.share(lw)
	return j.paused
}

// TestShareStepBudget: the step budget fires during the replay of shared
// work at the instance, and with the message, it fires at alone — with
// the trace and remarks attached, whose retry compiles alone too.
func TestShareStepBudget(t *testing.T) {
	got := checkAsAlone(t, Options{Programs: 3, BaseSeed: 1, StepBudget: 3, Trace: true, Remarks: true})
	timeouts := 0
	for _, r := range got {
		if strings.HasPrefix(r, "timeout") {
			timeouts++
		}
	}
	if timeouts != 24 {
		t.Errorf("%d timeouts, want the 8 optimizing configurations of 3 seeds", timeouts)
	}
}

// TestShareFaultedConfig: a configuration with a fault armed for the seed
// compiles alone and fails as in its own campaign, while the seed's other
// configurations still share.
func TestShareFaultedConfig(t *testing.T) {
	faults, err := harness.ParseFaults("panic:sccp:2:gcc-sim -O2")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Programs: 3, BaseSeed: 1, Faults: faults}
	o.fill()
	got := checkAsAlone(t, o)
	if r := got["2 gcc-sim -O2"]; !strings.HasPrefix(r, "crash") {
		t.Errorf("seed 2 gcc-sim -O2: %q, want the injected crash", r)
	}
	for u, p := range pausedUnits(t, o, 2) {
		if alone := o.configKeys()[u].String() == "gcc-sim -O2"; (p == nil) != alone {
			t.Errorf("seed 2 %s: paused compile %v, want one unless the fault is armed", o.configKeys()[u], p)
		}
	}
}

// TestShareDropsFailedTrie: when a pass panics in shared work, the seed
// drops its trie, every unit compiles alone, and each failure is the one
// the unit has alone.
func TestShareDropsFailedTrie(t *testing.T) {
	saved := opt.Mem2Reg
	defer func() { opt.Mem2Reg = saved }()
	opt.Mem2Reg.Fn = func(*ir.Func, opt.Options) bool { panic("mem2reg broke") }
	o := Options{Programs: 2, BaseSeed: 1}
	got := checkAsAlone(t, o)
	crashes := 0
	for _, r := range got {
		if strings.HasPrefix(r, "crash") {
			crashes++
		}
	}
	if crashes != 16 {
		t.Errorf("%d crashes, want the 8 optimizing configurations of 2 seeds", crashes)
	}
	if p := pausedUnits(t, o, 1); p != nil {
		t.Errorf("seed 1 kept its trie: %v", p)
	}
}
