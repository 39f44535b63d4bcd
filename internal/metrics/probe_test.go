package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestOpenEventLogConcurrentAppendAndTail: a resumed log whose file ends in
// a torn line keeps its sequence contract under concurrent writers and tail
// readers — every line lands exactly once, seq stays gapless past the torn
// record, and a second resume continues from the true final seq.
func TestOpenEventLogConcurrentAppendAndTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("seed_begin", map[string]any{"seed": 1})
	l.Emit("seed_end", map[string]any{"seed": 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: a torn, unparseable trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"seq":3,"event":"seed_beg`)
	f.Close()

	l, err = OpenEventLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 2 {
		t.Fatalf("resumed seq = %d, want 2 (torn line skipped)", got)
	}
	l.KeepTail(64)

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Emit("unit_end", map[string]any{"writer": w, "i": i})
			}
		}(w)
	}
	// Tail readers race the writers; every read must be internally
	// consistent: strictly increasing seqs, none beyond the head.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last int64
				for _, e := range l.TailSince(2) {
					if e.Seq <= last {
						t.Errorf("tail out of order: %d after %d", e.Seq, last)
						return
					}
					last = e.Seq
				}
				if head := l.Seq(); last > head {
					t.Errorf("tail seq %d beyond head %d", last, head)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(2 + writers*perWriter)
	if got := l.Seq(); got != want {
		t.Fatalf("final seq = %d, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn line is now mid-file; a fresh resume still finds the true
	// final seq by parsing records, not positions.
	l2, err := OpenEventLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != want {
		t.Fatalf("re-resumed seq = %d, want %d", got, want)
	}
	// Every emitted line (minus the torn one) parses, with seqs 1..want
	// present exactly once.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, line := range splitLines(data) {
		var rec struct {
			Seq int64 `json:"seq"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Seq > 0 {
			seen[rec.Seq]++
		}
	}
	for s := int64(1); s <= want; s++ {
		if seen[s] != 1 {
			t.Fatalf("seq %d appears %d times, want exactly once", s, seen[s])
		}
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			if i > start {
				out = append(out, b[start:i])
			}
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, b[start:])
	}
	return out
}

// TestAbsorbOccupancyCounters: the scheduler probe's occupancy counters
// (total and per-worker busy, queue wait, sequencer stall) merge across
// shard snapshots like any other counter — the merged registry reads as if
// one process had observed both shards' scheduling.
func TestAbsorbOccupancyCounters(t *testing.T) {
	a, b := New(), New()
	a.Counter(CounterSchedBusy).Add(1000)
	a.Counter(CounterQueueWait).Add(50)
	a.Counter(WorkerBusyCounter(0)).Add(600)
	a.Counter(WorkerBusyCounter(1)).Add(400)
	b.Counter(CounterSchedBusy).Add(2000)
	b.Counter(CounterSeqStall).Add(75)
	b.Counter(WorkerBusyCounter(0)).Add(2000)

	merged := New()
	merged.Absorb(a.Snapshot())
	merged.Absorb(b.Snapshot())

	for name, want := range map[string]int64{
		CounterSchedBusy:     3000,
		CounterQueueWait:     50,
		CounterSeqStall:      75,
		WorkerBusyCounter(0): 2600,
		WorkerBusyCounter(1): 400,
	} {
		if got := merged.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
