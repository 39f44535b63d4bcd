package core

import (
	"time"

	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/trace"
)

// Hooks are the optional consumers of one compile, one typed field each;
// a nil field attaches nothing. Compile composes them into the single
// observer the pipeline sees, so no consumer wraps another.
type Hooks struct {
	// Observer is the caller's pass observer: a campaign's harness guard
	// (watchdog and fault injection).
	Observer opt.Observer
	// Trace records per-pass profiles and marker provenance, and makes
	// Compile cross-check its surviving markers against the assembly.
	Trace *trace.Recorder
	// Remarks collects the passes' optimization remarks; attaching it is
	// what switches remark emission on.
	Remarks *remark.Collector
	// Recorder receives each phase and each pass event of the compile once
	// (a campaign's registry and span projections, internal/corpus).
	Recorder Recorder
}

// Recorder is a compile's instrumentation sink: the pass events of an
// opt.Observer plus the extent of each back-half phase.
type Recorder interface {
	opt.Observer
	// Phase reports one phase ("lower", "opt", "codegen") that began at
	// start and ran for d. Phases report when they return; the opt phase
	// also reports, with aborted set, when a guard's panic unwinds the
	// pipeline.
	Phase(name string, start time.Time, d time.Duration, aborted bool)
}

// optimize runs the middle end under the hooks' composed observer,
// reporting the opt phase to the recorder on every exit.
func optimize(cfg *pipeline.Config, r *opt.Run, h *Hooks) error {
	obs := h.observer()
	if h.Recorder == nil {
		return cfg.Finish(r, obs)
	}
	start := time.Now()
	returned := false
	defer func() { h.Recorder.Phase("opt", start, time.Since(start), !returned) }()
	err := cfg.Finish(r, obs)
	returned = true
	return err
}

// observer composes the hooks into the one observer the pipeline sees: nil
// with nothing attached, the caller's observer alone when only it is (a
// bare campaign unit pays nothing for the composition), and otherwise a
// fanout — a remark-sinking one when a collector is attached.
func (h *Hooks) observer() opt.Observer {
	switch {
	case h.Remarks != nil:
		return remarkFanout{fanout(*h)}
	case h.Trace != nil || h.Recorder != nil:
		return fanout(*h)
	}
	return h.Observer
}

// fanout dispatches each pipeline event once, in a fixed order: trace
// recorder, caller's observer, recorder, remark collector. The order
// decides which consumers see a pass instance the guard aborts: the trace
// does, the rest do not. Its frame sits between ObservedPipeline and the
// guard in every crash stack, so internal/harness keeps it out of crash
// signatures.
type fanout Hooks

func (h fanout) BeginPipeline(m *ir.Module) {
	if h.Trace != nil {
		h.Trace.BeginPipeline(m)
	}
	if h.Observer != nil {
		h.Observer.BeginPipeline(m)
	}
	if h.Recorder != nil {
		h.Recorder.BeginPipeline(m)
	}
	if h.Remarks != nil {
		h.Remarks.BeginPipeline(m)
	}
}

func (h fanout) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st opt.PassStats) {
	if h.Trace != nil {
		h.Trace.AfterPass(m, pass, scheduleIndex, iteration, st)
	}
	if h.Observer != nil {
		h.Observer.AfterPass(m, pass, scheduleIndex, iteration, st)
	}
	if h.Recorder != nil {
		h.Recorder.AfterPass(m, pass, scheduleIndex, iteration, st)
	}
	if h.Remarks != nil {
		h.Remarks.AfterPass(m, pass, scheduleIndex, iteration, st)
	}
}

// remarkFanout is a fanout that is also the run's remark sink: the
// pipeline switches remark emission on only for an observer implementing
// opt.RemarkSink.
type remarkFanout struct{ fanout }

func (h remarkFanout) Remark(r opt.Remark) { h.Remarks.Remark(r) }

// clock stamps a phase start, reading the clock only when rec records.
func clock(rec Recorder) time.Time {
	if rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// phase reports a phase that began at start and returned just now.
func phase(rec Recorder, name string, start time.Time) {
	if rec != nil {
		rec.Phase(name, start, time.Since(start), false)
	}
}
