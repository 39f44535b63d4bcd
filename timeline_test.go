// Span-timeline acceptance tests: a deterministic trace (dce-campaign
// -trace with -metrics=deterministic) must be byte-identical whether the
// campaign ran serially, on 8 workers, or was halted mid-run and resumed
// from its checkpoint — the same contract the report and metrics tables
// already honor.
package dcelens

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// runTraced runs one campaign variant with a deterministic file-backed span
// recorder and returns the trace bytes.
func runTraced(t *testing.T, path string, resume bool, o CampaignOptions) string {
	t.Helper()
	rec, err := OpenSpanTrace(path, resume, true)
	if err != nil {
		t.Fatal(err)
	}
	o.Spans = rec
	if _, err := RunCampaign(o); err != nil {
		t.Fatal(err)
	}
	if err := rec.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDeterministicTraceByteIdentity(t *testing.T) {
	const programs, baseSeed = 6, 400
	dir := t.TempDir()

	serial := runTraced(t, filepath.Join(dir, "serial.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
	})
	parallel := runTraced(t, filepath.Join(dir, "parallel.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 8,
	})
	if parallel != serial {
		t.Errorf("8-worker trace differs from serial:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}

	// The trace is loadable and flagged deterministic, with every unit
	// present and its wall-clock fields redacted.
	p, err := AnalyzeSpanTrace([]byte(serial), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Deterministic {
		t.Fatal("trace not flagged deterministic")
	}
	if len(p.Units) == 0 || p.Units[0].Us != 0 {
		t.Fatalf("units = %+v, want redacted unit rows", p.Units)
	}

	// Halt + resume: drain after two seeds, resume on 8 workers appending to
	// the same trace file. The checkpointed baseline never stops. Restored
	// seeds emit no spans, so the concatenated trace must equal the
	// uninterrupted run's byte for byte.
	baseline := runTraced(t, filepath.Join(dir, "baseline.json"), false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
		Checkpoint: NewCheckpoint(filepath.Join(dir, "baseline-cp.json")),
	})

	cpPath := filepath.Join(dir, "cp.json")
	tracePath := filepath.Join(dir, "resumed.json")
	var polls atomic.Int32
	runTraced(t, tracePath, false, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 4,
		Checkpoint: NewCheckpoint(cpPath),
		Stop:       func() bool { return polls.Add(1) > 2 },
	})
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runTraced(t, tracePath, true, CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 8,
		Checkpoint: cp,
	})
	if resumed != baseline {
		t.Errorf("halted+resumed trace differs from uninterrupted run:\n--- baseline\n%s\n--- resumed\n%s", baseline, resumed)
	}
}
