package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcelens/internal/metrics"
)

// lineCounter counts the lines the heartbeat writes.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(b []byte) (int, error) {
	c.n.Add(1)
	return len(b), nil
}

// TestProgressConcurrentWriters hammers Progress from writer goroutines
// (the campaign workers appending findings and bumping counters) while
// readers poll every accessor and View (the job status and the monitor
// endpoints) and a 1 ms heartbeat renders lines. The writers keep going
// until the heartbeat has rendered a few lines, so its reads overlap
// theirs. It asserts the end state and, under -race, that no access is
// unsynchronized.
func TestProgressConcurrentWriters(t *testing.T) {
	reg := metrics.New()
	p := NewProgress(64, 8, reg)
	var lines lineCounter
	stopHeartbeat := p.Heartbeat(&lines, time.Millisecond, "t")
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Done()
				p.Findings()
				p.FindingCount()
				p.View(reg.Snapshot())
			}
		}()
	}
	var written atomic.Int64
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter || lines.n.Load() < 3; i++ {
				p.AddFindings(map[string]any{"writer": w, "i": i})
				reg.Counter(metrics.CounterSeedsAnalyzed).Inc()
				reg.Counter(metrics.CounterUnits).Add(2)
				reg.Counter(metrics.CounterPassVisited).Add(3)
				reg.Counter(metrics.CounterPassSkipped).Inc()
				reg.Counter(metrics.CounterTimeouts).Inc()
				reg.Histogram(metrics.HistCampaignSeed).Observe(time.Microsecond)
				written.Add(1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	stopHeartbeat()
	want := int(written.Load())
	if n := p.FindingCount(); n != want {
		t.Fatalf("findings lost: %d, want %d", n, want)
	}
	if p.Done() != want {
		t.Fatalf("done count %d, want %d", p.Done(), want)
	}
	if lines.n.Load() < 4 {
		t.Fatalf("heartbeat wrote %d lines, want at least 4 (3 ticks and the final line)", lines.n.Load())
	}
}
