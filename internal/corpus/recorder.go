package corpus

import (
	"time"

	"dcelens/internal/ir"
	"dcelens/internal/metrics"
	"dcelens/internal/opt"
	"dcelens/internal/span"
)

// slotBuf collects one sequencer slot's output for deferred, in-order
// emission: its event-log lines, its remark-log line, its logical spans
// (seed, unit, phase, pass, checkpoint), and a completed seed's findings.
// Workers record what happens as it happens, but nothing reaches a log,
// the span recorder, or the live progress view until the slot's turn comes
// up in corpus order. That is what keeps event sequence numbers, the
// findings order, and a deterministic trace independent of how the
// scheduler interleaved the work.
type slotBuf struct {
	o        *Options
	events   []bufEvent
	remarks  map[string]any // the remark-log line (finalize slots only)
	spans    []span.Span
	findings []Finding
}

// bufEvent is one deferred event-log emission.
type bufEvent struct {
	name   string
	fields map[string]any
}

func (b *slotBuf) emit(name string, fields map[string]any) {
	b.events = append(b.events, bufEvent{name, fields})
}

// timed reports whether the campaign records spans; span sites skip their
// clock reads when it does not.
func (b *slotBuf) timed() bool { return b.o.Spans != nil }

// now stamps the clock only when spans are recorded.
func (b *slotBuf) now() time.Time {
	if !b.timed() {
		return time.Time{}
	}
	return time.Now()
}

// span buffers one span that began at start and ends now. Callers check
// timed first, so an untimed campaign never builds a span's args.
func (b *slotBuf) span(name, cat string, tid int, start time.Time, args ...span.Arg) {
	b.spans = append(b.spans, span.Span{Name: name, Cat: cat, TID: tid, Start: start, Dur: time.Since(start), Args: args})
}

// flush delivers everything the slot buffered.
func (b *slotBuf) flush() {
	for _, e := range b.events {
		b.o.Events.Emit(e.name, e.fields)
	}
	if b.remarks != nil {
		b.o.RemarkLog.Emit("remarks", b.remarks)
	}
	for _, sp := range b.spans {
		b.o.Spans.Emit(sp)
	}
	progressFindings(b.o.Progress, b.findings)
}

// Recorder is a campaign stage's instrumentation sink (a core.Recorder):
// it receives each phase and each pass event once and projects it into
// the registry — the phase.<name> and pass.<name> histograms, the
// pass.<name>.changed, visited/skipped, pipeline.runs and stage.asm.scans
// counters — and into the stage's phase and pass spans. One Recorder
// serves one compile (or one program build); the registry behind it is
// shared and concurrency-safe, the pass-name caches are not.
type Recorder struct {
	reg     *metrics.Registry
	buf     *slotBuf // nil or untimed: no spans
	tid     int
	hists   map[string]*metrics.Histogram
	changed map[string]*metrics.Counter
	visited *metrics.Counter
	skipped *metrics.Counter
}

// NewRecorder returns a recorder projecting into reg alone: the registry
// projection a metered campaign unit attaches, for compiles driven
// outside a campaign (the overhead benchmarks).
func NewRecorder(reg *metrics.Registry) *Recorder { return newRecorder(reg, nil, 0) }

// newRecorder returns a stage's recorder feeding reg and buf's spans on
// track tid, or nil when there is nothing to record into — so a bare
// campaign stage attaches no recorder and reads no clock.
func newRecorder(reg *metrics.Registry, buf *slotBuf, tid int) *Recorder {
	if buf != nil && !buf.timed() {
		buf = nil
	}
	if reg == nil && buf == nil {
		return nil
	}
	r := &Recorder{reg: reg, buf: buf, tid: tid}
	if reg != nil {
		r.hists = map[string]*metrics.Histogram{}
		r.changed = map[string]*metrics.Counter{}
	}
	return r
}

// Phase records one phase's histogram observation and, unless a panic
// aborted it, its span.
func (r *Recorder) Phase(name string, start time.Time, d time.Duration, aborted bool) {
	if r.reg != nil {
		r.reg.Histogram("phase." + name).Observe(d)
		if name == metrics.PhaseCodegen {
			// The codegen phase includes the assembly marker scan.
			r.reg.Counter("stage.asm.scans").Inc()
		}
	}
	if r.buf != nil && !aborted {
		r.buf.spans = append(r.buf.spans, span.Span{Name: name, Cat: span.CatPhase, TID: r.tid, Start: start, Dur: d})
	}
}

// BeginPipeline counts the compile into pipeline.runs.
func (r *Recorder) BeginPipeline(m *ir.Module) {
	if r.reg != nil {
		r.reg.Counter("pipeline.runs").Inc()
	}
}

// AfterPass records the instance's wall time, changed flag, and the dirty
// tracker's visited/skipped split (the campaign-wide skip rate behind the
// /progress endpoint), plus its pass span.
func (r *Recorder) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st opt.PassStats) {
	if reg := r.reg; reg != nil {
		h := r.hists[pass]
		if h == nil {
			h = reg.Histogram("pass." + pass)
			r.hists[pass] = h
		}
		h.Observe(st.Duration)
		if st.Changed {
			c := r.changed[pass]
			if c == nil {
				c = reg.Counter("pass." + pass + ".changed")
				r.changed[pass] = c
			}
			c.Inc()
		}
		if st.FuncsVisited > 0 {
			if r.visited == nil {
				r.visited = reg.Counter(metrics.CounterPassVisited)
			}
			r.visited.Add(int64(st.FuncsVisited))
		}
		if st.FuncsSkipped > 0 {
			if r.skipped == nil {
				r.skipped = reg.Counter(metrics.CounterPassSkipped)
			}
			r.skipped.Add(int64(st.FuncsSkipped))
		}
	}
	if r.buf != nil {
		end := time.Now()
		r.buf.spans = append(r.buf.spans, span.Span{
			Name: pass, Cat: span.CatPass, TID: r.tid,
			Start: end.Add(-st.Duration), Dur: st.Duration,
			Args: []span.Arg{span.Int("sched", scheduleIndex), span.Int("iter", iteration)},
		})
	}
}

// now stamps a phase start, reading the clock only when r records.
func (r *Recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// phase reports a program-build phase that began at start and returned
// just now. Nil-safe.
func (r *Recorder) phase(name string, start time.Time) {
	if r != nil {
		r.Phase(name, start, time.Since(start), false)
	}
}
