package main

import (
	"bytes"
	"testing"

	"dcelens/internal/corpus"
	"dcelens/internal/pipeline"
)

// TestOutputChecksCatchTampering runs the output checks on a small real
// campaign, then on tampered copies of its outputs: each tampering must
// be reported.
func TestOutputChecksCatchTampering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign, reductions and bisections")
	}
	c, err := corpus.Run(corpus.Options{Programs: 20, BaseSeed: 1000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *result { return newResult(&bytes.Buffer{}) }

	t.Run("campaign", func(t *testing.T) {
		r := fresh()
		checkCampaign(r, c)
		verifyModules(r, c, 2)
		if len(r.violations) > 0 {
			t.Fatalf("untampered campaign: %v", r.violations)
		}
		pr := c.Programs[0]
		comp := pr.PerCfg[corpus.ConfigKey{Personality: pipeline.GCC, Level: pipeline.O3}].Compilation
		marker := pr.Ins.Markers[0].Name
		comp.Alive[marker] = !comp.Alive[marker]
		defer func() { comp.Alive[marker] = !comp.Alive[marker] }()
		r = fresh()
		checkCampaign(r, c)
		if len(r.violations) == 0 {
			t.Errorf("flipping %s in seed %d's Compilation.Alive went unnoticed", marker, pr.Seed)
		}
	})

	t.Run("reduce", func(t *testing.T) {
		queue := reduceQueue(c)
		if len(queue) == 0 {
			t.Fatal("campaign has no primary finding")
		}
		rc, err := c.ReduceFinding(queue[0], reduceOpts)
		if err != nil {
			t.Fatal(err)
		}
		r := fresh()
		if !checkReduced(r, c, rc) {
			t.Fatalf("untampered reduction: %v", r.violations)
		}
		tampered := *rc
		tampered.Source = "int main(void) { return 0; }\n"
		r = fresh()
		if checkReduced(r, c, &tampered) {
			t.Error("a reduced case without its marker passed the check")
		}
	})

	t.Run("bisect", func(t *testing.T) {
		outs, _, err := c.BisectRegressions(pipeline.GCC, false, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) == 0 {
			t.Fatal("no bisection outcome")
		}
		o := outs[0]
		r := fresh()
		if !checkBisected(r, c, o) {
			t.Fatalf("untampered bisection: %v", r.violations)
		}
		h := pipeline.History(o.Personality)
		for _, idx := range []int{o.CommitIndex - 1, o.CommitIndex + 1} {
			if idx < 1 || idx > len(h) {
				continue
			}
			tampered := *o
			tampered.CommitIndex, tampered.Commit = idx, h[idx-1]
			if checkBisected(fresh(), c, &tampered) {
				t.Errorf("an outcome moved from commit %d to %d passed the check", o.CommitIndex, idx)
			}
		}
	})
}
