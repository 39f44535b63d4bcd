package remark_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
)

// appliedCountsFile holds, for seeds 1–10 under all 10 configs, each
// compile's remark total and per-pass applied/missed/analysis counts.
const appliedCountsFile = "testdata/applied_counts.txt"

// renderCounts renders one compile's profile counts as a single line:
// seed, personality, level, Total, then pass=applied/missed/analysis for
// every pass with a remark, in pass-name order.
func renderCounts(seed int64, p pipeline.Personality, l pipeline.Level, prof *remark.Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %s %s total=%d", seed, p, l, prof.Total)
	for _, pc := range prof.Passes {
		fmt.Fprintf(&sb, " %s=%d/%d/%d", pc.Pass, pc.Applied, pc.Missed, pc.Analysis)
	}
	return sb.String()
}

// TestAppliedCounts pins the per-pass remark counts and the profile total
// of 100 compiles against the recorded ones, so a change to how remarks
// are produced or tallied cannot move a count that dce-explain, the remark
// log, the report or the service prints.
func TestAppliedCounts(t *testing.T) {
	want, err := os.ReadFile(appliedCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for seed := int64(1); seed <= 10; seed++ {
		ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
			for _, l := range pipeline.Levels {
				coll := remark.NewCollector(instrument.IsMarker)
				if _, err := core.Compile(ins, pipeline.New(p, l), core.Hooks{Remarks: coll}); err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, p, l, err)
				}
				got = append(got, renderCounts(seed, p, l, coll.Profile()))
			}
		}
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%s has %d lines, the run gave %d", appliedCountsFile, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
