// Cross-build golden test: one fixed campaign with every deterministic sink
// attached, compared against artifacts recorded under testdata/golden/.
// The byte-identity suites compare runs of one build against each other, so
// a change that reorders spans or renames a counter passes them as long as
// every run of the new build agrees with itself; this test compares against
// the recorded output of an earlier build instead.
//
// Panic faults are deliberately absent: their crash buckets derive from
// stack frames, which a refactor may rename without changing behavior.
//
// After an intended output change, re-record with
//
//	go test -run TestGoldenCampaign -update .
package dcelens

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcelens/internal/corpus"
	"dcelens/internal/pipeline"
	"dcelens/internal/span"
)

var updateGolden = flag.Bool("update", false, "re-record the golden campaign artifacts under testdata/golden")

// stripTimings drops the wall-clock fields (t_ms, d_us) from every JSONL
// event line, re-rendering each with encoding/json's sorted keys.
func stripTimings(t *testing.T, log string) string {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		delete(obj, "t_ms")
		delete(obj, "d_us")
		b, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

func TestGoldenCampaign(t *testing.T) {
	faults, err := ParseFaults("stall:gvn:2,corrupt:licm:3")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewDeterministicMetrics()
	var events, remarks, trace bytes.Buffer
	spans := span.NewDeterministic(&trace)
	c, err := RunCampaign(CampaignOptions{
		Programs: 6, BaseSeed: 1, Workers: 2,
		Trace: true, Remarks: true, Faults: faults,
		Metrics: reg, Spans: spans,
		Events: NewEventLog(&events), RemarkLog: NewEventLog(&remarks),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spans.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := NewRunSnapshot("dce-campaign", c, reg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(trace.Bytes())

	got := map[string]string{
		"report.txt":    Report(c),
		"metrics.txt":   ReportMetrics(reg),
		"snapshot.json": string(snap),
		"explain.txt":   ExplainFindings(c.Findings),
		"events.jsonl":  stripTimings(t, events.String()),
		"remarks.jsonl": stripTimings(t, remarks.String()),
		"trace.sha256":  hex.EncodeToString(sum[:]) + "\n",
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range got {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, body := range got {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%v (record with -update)", err)
		}
		if body != string(want) {
			t.Errorf("%s differs from the recorded golden:\n--- want\n%s\n--- got\n%s", name, want, body)
		}
	}
}

// goldenUnitSeeds is how many seeds, from 1, testdata/golden/units.sha256
// covers: each seed's units under the ten default configurations.
const goldenUnitSeeds = 200

// TestGoldenUnits pins the assembly of every unit of seeds 1–200 under the
// ten default configurations, compiled as a campaign compiles them: by
// corpus.Run, through each seed's compile trie. testdata/golden/units.sha256
// holds one line per unit, "seed personality level sha256(asm)", so a
// change that renumbers values or moves an instruction names each unit it
// touched. A change that means to alter the assembly re-records the file
// with -update in a commit of its own.
func TestGoldenUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 2,000 units")
	}
	var got strings.Builder
	// Twenty seeds a campaign, so that only one batch of results is live.
	const batch = 20
	for base := int64(1); base <= goldenUnitSeeds; base += batch {
		c, err := corpus.Run(corpus.Options{Programs: batch, BaseSeed: base})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Programs {
			if p.Err != nil || len(p.Failures) > 0 {
				t.Fatalf("seed %d: %v %v", p.Seed, p.Err, p.Failures)
			}
			for _, pers := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
				for _, lvl := range pipeline.Levels {
					a := p.PerCfg[corpus.ConfigKey{Personality: pers, Level: lvl}]
					sum := sha256.Sum256([]byte(a.Compilation.Asm))
					fmt.Fprintf(&got, "%d %s %s %x\n", p.Seed, pers, lvl, sum)
				}
			}
		}
	}
	path := filepath.Join("testdata", "golden", "units.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the build computes %d", path, len(wantLines), len(gotLines))
	}
	differ := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if differ < 10 {
				t.Errorf("unit differs from %s:\n got: %s\nwant: %s", path, gotLines[i], wantLines[i])
			}
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d units differ from %s", differ, len(gotLines)-1, path)
	}
}
