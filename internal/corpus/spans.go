// Scheduler instrumentation for campaigns: the sched probe that turns
// scheduling observations into occupancy counters and wall-trace spans.
// The logical spans (seed, unit, phase, pass, checkpoint) ride the
// sequencer in slotBuf (recorder.go).
package corpus

import (
	"time"

	"dcelens/internal/metrics"
	"dcelens/internal/sched"
	"dcelens/internal/span"
)

// schedProbe bridges the engine's scheduling observations into the span
// recorder (wall traces only — a deterministic recorder drops CatSched)
// and the registry's occupancy counters (wall registries only — occupancy
// is a pure wall-clock quantity, and deterministic artifacts must not
// depend on it). Sched spans bypass the sequencer: they describe real
// scheduling, which has no deterministic order to preserve.
type schedProbe struct {
	o *Options
}

// active reports whether a campaign needs the probe at all.
func (o *Options) probeActive() bool {
	return o.Spans != nil || (o.Metrics != nil && !o.Metrics.Deterministic)
}

func (p *schedProbe) ItemRun(worker, job, unit int, ready, start, end time.Time) {
	if reg := p.o.Metrics; reg != nil && !reg.Deterministic {
		busy := end.Sub(start).Nanoseconds()
		reg.Counter(metrics.WorkerBusyCounter(worker)).Add(busy)
		reg.Counter(metrics.CounterSchedBusy).Add(busy)
		if unit >= 0 {
			reg.Counter(metrics.CounterQueueWait).Add(start.Sub(ready).Nanoseconds())
		}
	}
	if r := p.o.Spans; r != nil {
		tid := worker + 1
		if wait := start.Sub(ready); unit != sched.FinalizeStage && wait > 0 {
			r.Emit(span.Span{
				Name: "queue-wait", Cat: span.CatSched, TID: tid, Start: ready, Dur: wait,
				Args: []span.Arg{span.Int("job", job), span.Int("unit", unit)},
			})
		}
		r.Emit(span.Span{
			Name: "busy", Cat: span.CatSched, TID: tid, Start: start, Dur: end.Sub(start),
			Args: []span.Arg{span.Int("job", job), span.Int("unit", unit)},
		})
	}
}

func (p *schedProbe) WorkerIdle(worker int, start, end time.Time) {
	if r := p.o.Spans; r != nil {
		r.Emit(span.Span{Name: "idle", Cat: span.CatSched, TID: worker + 1, Start: start, Dur: end.Sub(start)})
	}
}

// stall is the Sequencer.Stall hook: reorder-buffer time spent holding a
// completed slot's output back for deterministic ordering.
func (p *schedProbe) stall(slot int, parked, flushed time.Time) {
	d := flushed.Sub(parked)
	if reg := p.o.Metrics; reg != nil && !reg.Deterministic {
		reg.Counter(metrics.CounterSeqStall).Add(d.Nanoseconds())
	}
	if r := p.o.Spans; r != nil {
		r.Emit(span.Span{
			Name: "seq-stall", Cat: span.CatSched, TID: 0, Start: parked, Dur: d,
			Args: []span.Arg{span.Int("slot", slot)},
		})
	}
}
