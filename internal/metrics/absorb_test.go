package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

// TestAbsorbMergesShards: a registry that absorbs two shard snapshots is
// indistinguishable from one that observed everything itself.
func TestAbsorbMergesShards(t *testing.T) {
	whole := New()
	a, b := New(), New()
	for i, d := range []time.Duration{
		3 * time.Microsecond, 90 * time.Millisecond, 2 * time.Second,
		15 * time.Second,                            // overflow bucket
		700 * time.Nanosecond, 1 * time.Microsecond, // exact bound
	} {
		half := a
		if i%2 == 1 {
			half = b
		}
		half.Histogram("campaign.seed").Observe(d)
		whole.Histogram("campaign.seed").Observe(d)
		half.Counter("campaign.units").Add(int64(i))
		whole.Counter("campaign.units").Add(int64(i))
	}
	a.Gauge("rss.peak").Set(70)
	b.Gauge("rss.peak").Set(90)
	whole.Gauge("rss.peak").Set(90)

	merged := New()
	merged.Absorb(a.Snapshot())
	merged.Absorb(b.Snapshot())

	got, _ := json.Marshal(merged.Snapshot())
	want, _ := json.Marshal(whole.Snapshot())
	if string(got) != string(want) {
		t.Errorf("merged snapshot differs:\n%s\nvs\n%s", got, want)
	}
	h := merged.Histogram("campaign.seed")
	if h.Count() != 6 || h.Max() != 15*time.Second {
		t.Errorf("merged histogram count=%d max=%v", h.Count(), h.Max())
	}
	if h.P50() != whole.Histogram("campaign.seed").P50() {
		t.Error("merged quantile differs from direct observation")
	}
}

// TestAbsorbNilSafe: nil receivers and nil snapshots are no-ops.
func TestAbsorbNilSafe(t *testing.T) {
	var r *Registry
	r.Absorb(New().Snapshot())
	New().Absorb(nil)
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
