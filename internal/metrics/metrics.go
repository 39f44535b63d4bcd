// Package metrics is the campaign-wide telemetry substrate: a
// dependency-free, low-overhead registry of counters, gauges, and
// fixed-bucket duration histograms, plus the JSONL event log built on it.
// The per-pass and per-phase projections into a registry live with the
// campaign's per-unit recorder (internal/corpus); the live campaign view
// that the heartbeat and the monitor render is derived from a registry
// snapshot by harness.Progress.
//
// internal/trace answers "which pass eliminated this marker" (provenance);
// this package answers "where does the time go and what is the campaign
// doing right now" (performance). Both are optional hooks of one compile
// (internal/core), so a campaign can run with either, both, or neither
// attached.
//
// Design rules:
//
//   - Every collector method is nil-safe: a nil *Registry hands out nil
//     collectors whose methods are no-ops, so instrumented code paths read
//     identically whether telemetry is on or off, and uninstrumented runs
//     pay only a nil check.
//   - Histograms use fixed exponential bucket boundaries (histogram.go), so
//     a rendered report's *structure* is a pure function of the campaign
//     configuration; Deterministic registries additionally redact the
//     wall-clock-derived values when rendered (internal/report), making two
//     identical runs byte-identical.
//   - Everything is safe for concurrent use; hot-path updates are atomic.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Standard phase names (the histogram "phase.<name>" family). The frontend
// phases (lex, parse, sema) run only on paths that start from MiniC source;
// generated campaigns enter at lower.
const (
	PhaseLex        = "lex"
	PhaseParse      = "parse"
	PhaseSema       = "sema"
	PhaseGenerate   = "generate"
	PhaseInstrument = "instrument"
	PhaseTruth      = "truth"
	PhaseLower      = "lower"
	PhaseOpt        = "opt"
	PhaseCodegen    = "codegen"
)

// Counter is a monotonically-increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins gauge. A nil Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a campaign's named collectors. Collectors are created on
// first use and shared by name; lookups are guarded by a RWMutex, so hot
// paths should hold on to the returned collector rather than re-looking it
// up per observation (corpus.Recorder caches per pass name).
type Registry struct {
	// Deterministic marks the registry for redacted rendering: reports
	// derived from it print counts and identities but replace every
	// wall-clock-derived value (durations, percentiles, time shares) with a
	// placeholder, making the rendering byte-identical across runs.
	Deterministic bool

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// NewDeterministic returns a registry whose renderings redact wall-clock
// values (the -metrics=deterministic mode).
func NewDeterministic() *Registry {
	r := New()
	r.Deterministic = true
	return r
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Time starts a phase timer: it observes the elapsed wall time into the
// "phase.<name>" histogram when the returned stop function runs. Nil-safe;
// the nil path costs one comparison and returns a shared no-op.
//
//	defer reg.Time(metrics.PhaseLower)()
func (r *Registry) Time(phase string) func() {
	if r == nil {
		return nop
	}
	h := r.Histogram("phase." + phase)
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

var nop = func() {}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedNames(r.counters)
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedNames(r.histograms)
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedNames(r.gauges)
}

func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
