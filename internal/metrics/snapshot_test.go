package metrics

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshot(t *testing.T) {
	reg := New()
	reg.Counter("campaign.seeds.analyzed").Add(5)
	reg.Gauge("campaign.workers").Set(8)
	h := reg.Histogram("pass.gvn")
	h.Observe(1 * time.Millisecond)
	h.Observe(1 * time.Hour) // overflow bucket

	s := reg.Snapshot()
	if s.Counters["campaign.seeds.analyzed"] != 5 {
		t.Fatalf("counter = %d", s.Counters["campaign.seeds.analyzed"])
	}
	if s.Gauges["campaign.workers"] != 8 {
		t.Fatalf("gauge = %d", s.Gauges["campaign.workers"])
	}
	hs := s.Histograms["pass.gvn"]
	if hs.Count != 2 || hs.SumNs <= 0 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	var total int64
	sawOverflow := false
	for _, b := range hs.Buckets {
		total += b.Count
		if b.LeNs == math.MaxInt64 {
			sawOverflow = true
		}
	}
	if total != 2 || !sawOverflow {
		t.Fatalf("buckets = %+v, want 2 observations incl. overflow", hs.Buckets)
	}
}

// TestRegistrySnapshotNil: a nil registry snapshots to empty non-nil maps
// so the monitor can marshal it unconditionally.
func TestRegistrySnapshotNil(t *testing.T) {
	var reg *Registry
	s := reg.Snapshot()
	if s == nil || s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestEventTailRing(t *testing.T) {
	l := NewEventLog(io.Discard)
	l.Journal().KeepTail(3)
	for i := 1; i <= 5; i++ {
		l.Emit("seed_end", map[string]any{"seed": i})
	}
	// Capacity 3: seqs 1-2 were evicted.
	tail, head := l.Journal().Since(0)
	if len(tail) != 3 || tail[0].Seq != 3 || tail[2].Seq != 5 || head != 5 {
		t.Fatalf("tail = %+v at head %d, want seqs 3..5", tail, head)
	}
	if got, _ := l.Journal().Since(4); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("Since(4) = %+v", got)
	}
	if got, _ := l.Journal().Since(5); got != nil {
		t.Fatalf("caught-up Since = %+v", got)
	}
	for _, e := range tail {
		if !strings.Contains(e.Line, `"event":"seed_end"`) {
			t.Fatalf("tail line %q missing event field", e.Line)
		}
	}
}

func TestEventTailDisabled(t *testing.T) {
	l := NewEventLog(io.Discard)
	l.Emit("x", nil)
	if got, _ := l.Journal().Since(0); got != nil {
		t.Fatalf("tail without KeepTail = %+v", got)
	}
	l.Journal().KeepTail(2)
	l.Emit("y", nil)
	l.Journal().KeepTail(0) // disable again
	if got, _ := l.Journal().Since(0); got != nil {
		t.Fatalf("tail after disable = %+v", got)
	}

	var nilLog *EventLog
	nilLog.Journal().KeepTail(4)
	if got, _ := nilLog.Journal().Since(0); got != nil {
		t.Fatalf("nil log tail = %+v", got)
	}
}

// TestOpenEventLogResumeSeq is the regression test for the resume
// continuity fix: a campaign resumed with -resume -events must append to
// the existing file and continue the monotonic sequence from its last
// record instead of restarting at 1.
func TestOpenEventLogResumeSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")

	l1, err := OpenEventLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	l1.Emit("campaign_begin", nil)
	l1.Emit("seed_end", map[string]any{"seed": 1})
	l1.Emit("seed_end", map[string]any{"seed": 2})
	if err := l1.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenEventLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, head := l2.Journal().Since(0); head != 3 {
		t.Fatalf("resumed log starts at seq %d, want 3 (continuing the file)", head)
	}
	l2.Emit("seed_end", map[string]any{"seed": 3})
	if err := l2.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 {
		t.Fatalf("resumed file has %d lines, want 4 (append, not truncate)", len(lines))
	}
	for i, line := range lines {
		want := `"seq":` + string(rune('1'+i))
		if !strings.Contains(line, want) {
			t.Fatalf("line %d = %q, want %s (monotonic across resume)", i, line, want)
		}
	}
}

// TestOpenEventLogResumeTornLine: a torn trailing write (killed campaign)
// must not break sequence recovery, and the resumed file reads as one
// gapless stream: the torn fragment is cut.
func TestOpenEventLogResumeTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	content := `{"event":"seed_end","seq":1,"t_ms":0}` + "\n" +
		`{"event":"seed_end","seq":2,"t_ms":1}` + "\n" +
		`{"event":"seed_end","se` // torn
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenEventLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, head := l.Journal().Since(0); head != 2 {
		t.Fatalf("seq after torn line = %d, want 2", head)
	}
	l.Emit("seed_end", nil)
	if err := l.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	for i, line := range lines {
		var rec struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Seq != int64(i+1) {
			t.Fatalf("resumed line %d = %q (err %v), want seq %d", i+1, line, err, i+1)
		}
	}
	if len(lines) != 3 {
		t.Fatalf("resumed file has %d lines, want 3:\n%s", len(lines), b)
	}
}

// TestOpenEventLogResumeMissingFile: resuming without a prior event file
// starts a fresh stream at seq 1.
func TestOpenEventLogResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("campaign_begin", nil)
	if err := l.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if !strings.Contains(string(b), `"seq":1`) {
		t.Fatalf("fresh resume file = %q, want seq 1", b)
	}
}

func TestOpenEventLogTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(`{"seq":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenEventLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("campaign_begin", nil)
	if err := l.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if strings.Contains(string(b), `"seq":9`) || !strings.Contains(string(b), `"seq":1`) {
		t.Fatalf("non-resume open did not truncate: %q", b)
	}
}
