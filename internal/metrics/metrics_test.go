package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	if got := r.Counter("a").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Set(4)
	if got := r.Gauge("g").Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// TestNilSafety exercises the central design rule: a nil registry and nil
// collectors absorb every operation without branching at call sites.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.Time("lower")() // must not panic
	if r.Counter("x").Value() != 0 || r.Histogram("x").Count() != 0 {
		t.Error("nil registry retained state")
	}
	if r.CounterNames() != nil || r.HistogramNames() != nil || r.GaugeNames() != nil {
		t.Error("nil registry returned names")
	}
	var l *EventLog
	l.Emit("x", nil)
	if _, head := l.Journal().Since(0); head != 0 {
		t.Error("nil event log advanced")
	}
	if err := l.Journal().Close(); err != nil {
		t.Errorf("nil event log Close: %v", err)
	}
}

// TestHistogramZeroObservations: every statistic of an untouched histogram
// is zero — the edge case a pass that never ran hits.
func TestHistogramZeroObservations(t *testing.T) {
	h := New().Histogram("empty")
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram has non-zero summary stats")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) = %v on empty histogram, want 0", q, got)
		}
	}
}

// TestHistogramSingleObservation: with one observation every quantile must
// land in its bucket (the upper bound covering it), and mean == sum == the
// observation.
func TestHistogramSingleObservation(t *testing.T) {
	h := New().Histogram("one")
	h.Observe(3 * time.Microsecond)
	if h.Count() != 1 || h.Sum() != 3*time.Microsecond || h.Mean() != 3*time.Microsecond {
		t.Errorf("count/sum/mean = %d/%v/%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Max() != 3*time.Microsecond {
		t.Errorf("max = %v, want 3µs", h.Max())
	}
	want := 4 * time.Microsecond // the 2^2 µs bucket covers 3µs
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestHistogramOverflowBucket: observations beyond the top bound report the
// observed maximum from the overflow bucket — there is no finite bound to
// quote.
func TestHistogramOverflowBucket(t *testing.T) {
	h := New().Histogram("huge")
	h.Observe(30 * time.Second)
	h.Observe(90 * time.Second)
	if got := h.Quantile(0.99); got != 90*time.Second {
		t.Errorf("overflow p99 = %v, want the observed max 90s", got)
	}
	if got := h.Max(); got != 90*time.Second {
		t.Errorf("max = %v, want 90s", got)
	}
}

// TestHistogramNegativeClamped: a negative duration (clock weirdness) must
// not corrupt the histogram.
func TestHistogramNegativeClamped(t *testing.T) {
	h := New().Histogram("neg")
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("count/sum = %d/%v, want 1/0", h.Count(), h.Sum())
	}
}

// TestHistogramQuantileMonotone: quantiles are monotone in q and bounded by
// the bucket structure.
func TestHistogramQuantileMonotone(t *testing.T) {
	h := New().Histogram("m")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
	if p50 := h.P50(); p50 < 256*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v, want a bucket bound near 500µs", p50)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := New()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n)
	}
	if got := strings.Join(r.CounterNames(), ","); got != "a,m,z" {
		t.Errorf("CounterNames = %q, want sorted", got)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestEventLogJSONLAndSeq: every line is valid JSON, sequence numbers are
// monotonically increasing from 1, and reserved keys win over caller fields.
func TestEventLogJSONLAndSeq(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("campaign_begin", map[string]any{"programs": 3})
	l.Emit("seed_begin", map[string]any{"seed": 1, "seq": 999}) // reserved key ignored
	l.Emit("campaign_end", nil)
	if err := l.Journal().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, head := l.Journal().Since(0); head != 3 {
		t.Errorf("head seq = %d, want 3", head)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
		if got := int64(obj["seq"].(float64)); got != int64(i+1) {
			t.Errorf("line %d seq = %d, want %d", i+1, got, i+1)
		}
		if _, ok := obj["event"].(string); !ok {
			t.Errorf("line %d has no event field", i+1)
		}
	}
	var second map[string]any
	_ = json.Unmarshal([]byte(lines[1]), &second)
	if second["seq"].(float64) != 2 {
		t.Error("caller-supplied seq overrode the log's")
	}
	if second["seed"].(float64) != 1 {
		t.Error("caller field lost")
	}
}

// failWriter fails after n writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestEventLogSurfacesWriteError: a broken stream is reported at Close, not
// silently truncated.
func TestEventLogSurfacesWriteError(t *testing.T) {
	l := NewEventLog(&failWriter{n: 1})
	l.Emit("a", nil)
	l.Emit("b", nil) // fails
	l.Emit("c", nil) // dropped after the error
	if err := l.Journal().Close(); err == nil {
		t.Fatal("Close returned nil after a write error")
	}
}
