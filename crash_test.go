// Crash-consistency acceptance test: the three files a resume reopens —
// the checkpoint, the event log and the span trace — must survive a kill
// at any byte of their last record (and of their header), not only at seed
// boundaries.
package dcelens

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcelens/internal/metrics"
	"dcelens/internal/pipeline"
	"dcelens/internal/span"
)

// lineStarts returns the offset just past data's first n lines and the
// offset where its last line begins.
func lineStarts(data []byte, n int) (afterFirst, lastStart int) {
	for i := 0; i < n; i++ {
		afterFirst += bytes.IndexByte(data[afterFirst:], '\n') + 1
	}
	return afterFirst, bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
}

func TestCrashConsistency(t *testing.T) {
	const baseSeed = 300
	dir := t.TempDir()
	opts := func(programs int) CampaignOptions {
		return CampaignOptions{
			Programs: programs, BaseSeed: baseSeed, Workers: 1,
			Personalities: []pipeline.Personality{PersonalityGCC}, Levels: []Level{O2},
		}
	}
	whole, err := RunCampaign(opts(3))
	if err != nil {
		t.Fatal(err)
	}
	want := Report(whole)

	// The halted run: 2 of the 3 seeds, every journal attached.
	cpPath, evPath, trPath := filepath.Join(dir, "cp.jsonl"), filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "trace.json")
	o := opts(2)
	o.Checkpoint = NewCheckpoint(cpPath)
	if o.Events, err = metrics.OpenEventLog(evPath, false); err != nil {
		t.Fatal(err)
	}
	if o.Spans, err = OpenSpanTrace(trPath, false, true); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(o); err != nil {
		t.Fatal(err)
	}
	if err := o.Events.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Spans.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cut := filepath.Join(dir, "cut")
	writeCut := func(data []byte) {
		if err := os.WriteFile(cut, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("checkpoint", func(t *testing.T) {
		data := read(cpPath)
		hdrEnd, lastStart := lineStarts(data, 1)
		for k := 0; k < len(data); k++ {
			if k >= hdrEnd && k < lastStart {
				continue // complete records only: not a torn file
			}
			writeCut(data[:k])
			cp, err := LoadCheckpoint(cut)
			if k < hdrEnd {
				if err == nil || !strings.Contains(err.Error(), cut) {
					t.Fatalf("cut at %d inside the header: err %v, want one naming %s", k, err, cut)
				}
				continue
			}
			if err != nil || len(cp.Seeds()) != 1 || cp.Seeds()[0] != baseSeed {
				t.Fatalf("cut at %d inside the last record: seeds %v (err %v), want [%d]", k, cp.Seeds(), err, baseSeed)
			}
		}

		// One full resume from a mid-record cut.
		writeCut(data[:(lastStart+len(data))/2])
		cp, err := LoadCheckpoint(cut)
		if err != nil {
			t.Fatal(err)
		}
		o := opts(3)
		o.Checkpoint = cp
		resumed, err := RunCampaign(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := Report(resumed); got != want {
			t.Errorf("resumed report differs from the uninterrupted run's:\n--- want\n%s\n--- got\n%s", want, got)
		}
		if !bytes.HasPrefix(read(cut), data[:lastStart]) {
			t.Error("the resume rewrote the complete records it kept")
		}
	})

	t.Run("events", func(t *testing.T) {
		data := read(evPath)
		_, lastStart := lineStarts(data, 0)
		for k := lastStart; k < len(data); k++ {
			writeCut(data[:k])
			l, err := metrics.OpenEventLog(cut, true)
			if err != nil {
				t.Fatalf("cut at %d: %v", k, err)
			}
			l.Emit("probe", nil)
			if err := l.Journal().Close(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(read(cut)), "\n"), "\n")
			for i, line := range lines {
				var ev struct {
					Seq int64 `json:"seq"`
				}
				if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Seq != int64(i+1) {
					t.Fatalf("cut at %d: line %d = %q (err %v), want seq %d", k, i+1, line, err, i+1)
				}
			}
			if !strings.Contains(lines[len(lines)-1], `"event":"probe"`) {
				t.Fatalf("cut at %d: the appended event is not last", k)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		data := read(trPath)
		hdrEnd, lastStart := lineStarts(data, 2)
		for k := 0; k < len(data); k++ {
			if k >= hdrEnd && k < lastStart {
				continue
			}
			writeCut(data[:k])
			r, err := span.Open(cut, true, true)
			if err != nil {
				t.Fatalf("cut at %d: %v", k, err)
			}
			r.Emit(span.Span{Name: "probe", Cat: span.CatUnit})
			if err := r.Journal().Close(); err != nil {
				t.Fatal(err)
			}
			tr, err := span.ParseFile(cut)
			if err != nil {
				t.Fatalf("cut at %d: %v", k, err)
			}
			kept := strings.Count(string(data[:k]), "\n") - 2
			if !tr.Deterministic || len(tr.Events) != max(kept, 0)+1 || tr.Events[len(tr.Events)-1].Name != "probe" {
				t.Fatalf("cut at %d: deterministic %v, %d spans, want %d ending in the probe", k, tr.Deterministic, len(tr.Events), max(kept, 0)+1)
			}
		}
	})
}
