// The paper's tables, pinned: testdata/golden/paper-tables.txt is the
// stdout of `dce-report -n 120 -bisect -triage`, the run EXPERIMENTS.md
// reproduces §4.1, Tables 1–5 and both differentials from. The triage
// half takes over a minute, so scripts/check.sh compares the full run;
// this test pins the cheaper `-bisect` run, which prints the same lines
// without Table 5. Like the golden campaign, the file changes only in a
// change that says why.
package dcelens

import (
	"os"
	"strings"
	"testing"
)

// paperTablesBisectLines is how many leading lines of the golden file the
// -bisect run prints: everything except Table 5's triage rows.
const paperTablesBisectLines = 51

func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 120-program campaign with bisection")
	}
	golden, err := os.ReadFile("testdata/golden/paper-tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	if len(lines) < paperTablesBisectLines {
		t.Fatalf("golden paper tables have %d lines, want at least %d", len(lines), paperTablesBisectLines)
	}
	want := strings.Join(lines[:paperTablesBisectLines], "")
	got := runCmdStdout(t, "dce-report", "-n", "120", "-bisect")
	if got == want {
		return
	}
	gotLines := strings.SplitAfter(got, "\n")
	for i := range max(len(gotLines), paperTablesBisectLines) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < paperTablesBisectLines {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("dce-report -n 120 -bisect differs from testdata/golden/paper-tables.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
