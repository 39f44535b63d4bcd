package corpus

import (
	"time"

	"dcelens/internal/core"
	"dcelens/internal/harness"
	"dcelens/internal/metrics"
	"dcelens/internal/sched"
	"dcelens/internal/span"
)

// seedJob is one seed's fork-join job on the sched engine. Its sequencer
// slots reproduce the serial event order exactly: slot `slot` carries
// seed_begin plus the prepare stage's events, slots slot+1+u carry unit
// u's events in config order, and the final slot carries the checkpoint
// event, seed_end, the remark-log line, and the live-progress findings
// append. Each slot's output, spans included, collects in one slotBuf and
// flushes when the slot's turn comes, so the timeline's logical spans land
// in corpus order too.
//
// All mutable fields are written by at most one stage at a time; the
// engine's lock provides the prepare→units→finalize happens-before edges,
// and each unit writes only its own index of the unit slices.
type seedJob struct {
	o    *Options
	h    *harness.Harness
	idx  int   // corpus index
	seed int64 // o.BaseSeed + idx
	cfgs []ConfigKey
	slot int // first sequencer slot of this seed's block
	seq  *sched.Sequencer

	results  []*ProgramResult
	outcomes []*SeedOutcome

	start    time.Time
	r        *ProgramResult
	restored bool
	skipped  bool
	unitAn   []*core.Analysis
	unitFail []*harness.Failure
}

// prepare restores the seed from the checkpoint or builds its program,
// reporting how many config units follow (0 for restored and
// program-failed seeds).
func (j *seedJob) prepare(w int) (int, error) {
	if j.o.Stop != nil && j.o.Stop() {
		// Draining: leave the seed unrun and its slots silent. Completed
		// seeds are already checkpointed, so a resume runs exactly the
		// skipped ones and reports byte-identically to an uninterrupted run.
		j.skipped = true
		j.seq.Done(j.slot, nil)
		j.skipUnits()
		j.seq.Done(j.lastSlot(), nil)
		return 0, nil
	}
	buf := &slotBuf{o: j.o}
	buf.emit("seed_begin", map[string]any{"seed": j.seed})
	if j.o.Checkpoint != nil {
		var restored SeedOutcome
		ok, err := j.o.Checkpoint.Restore(j.seed, &restored)
		if err != nil {
			return 0, err
		}
		if ok {
			// A restored seed contributes its checkpointed outcome to
			// aggregation but adds nothing to the live registry beyond the
			// restored count — and emits no spans: its timings belong to
			// the process that computed them, and span silence is what
			// makes a resumed trace byte-identical to an uninterrupted one.
			j.restored = true
			j.outcomes[j.idx] = &restored
			j.o.Metrics.Counter(metrics.CounterSeedsRestored).Inc()
			buf.emit("seed_end", map[string]any{
				"seed": j.seed, "ok": restored.Ok, "restored": true,
			})
			buf.findings = restored.Findings
			j.flush(j.slot, buf)
			j.skipUnits()
			j.seq.Done(j.lastSlot(), nil)
			return 0, nil
		}
	}
	j.start = time.Now()
	j.r = buildProgram(*j.o, j.h, j.seed, buf, w+1)
	if buf.timed() {
		buf.span("prepare", span.CatSeed, w+1, j.start,
			span.Int64("seed", j.seed), span.Bool("ok", j.r.Err == nil))
	}
	j.flush(j.slot, buf)
	if j.r.Err != nil {
		// Program-level failure: no config units; finalize still records
		// the outcome, checkpoint, and seed_end.
		j.skipUnits()
		return 0, nil
	}
	j.unitAn = make([]*core.Analysis, len(j.cfgs))
	j.unitFail = make([]*harness.Failure, len(j.cfgs))
	return len(j.cfgs), nil
}

// unit compiles and analyzes one configuration, storing its result in the
// unit's own slot for finalize to merge.
func (j *seedJob) unit(w, u int) error {
	key := j.cfgs[u]
	buf := &slotBuf{o: j.o}
	an, fail := runConfig(*j.o, j.h, j.r, key, j.o.Trace, j.o.Remarks, buf, w+1)
	if fail != nil && (j.o.Trace || j.o.Remarks) {
		// Graceful degradation: the observers themselves (the trace
		// recorder's per-pass IR scans, the remark collector) may be what
		// broke — retry once with both off before giving up on the config.
		if ran, retry := runConfig(*j.o, j.h, j.r, key, false, false, buf, w+1); retry == nil {
			an, fail = ran, nil
		}
	}
	j.unitAn[u] = an
	if fail != nil {
		j.unitFail[u] = fail
		buf.emit("failure", failureFields(fail))
	}
	j.flush(j.slot+1+u, buf)
	return nil
}

// finalize merges the unit results into the seed's ProgramResult — the
// single-writer replacement for the per-config map and slice writes the
// serial loop did in place — then derives the outcome, feeds the metrics
// and checkpoint, and schedules the seed's closing events.
func (j *seedJob) finalize(w int) error {
	if j.restored || j.skipped {
		return nil
	}
	buf := &slotBuf{o: j.o}
	fstart := buf.now()
	if j.o.SeedHook != nil {
		// The chaos seam: a panicking hook aborts the job here, before the
		// seed's outcome exists, so a retry recomputes exactly this seed.
		j.o.SeedHook(j.idx, j.seed)
	}
	for u := range j.unitAn {
		if an := j.unitAn[u]; an != nil {
			j.r.PerCfg[j.cfgs[u]] = an
		}
		if f := j.unitFail[u]; f != nil {
			j.r.Failures = append(j.r.Failures, *f)
		}
	}
	out := outcomeOf(*j.o, j.r)
	j.outcomes[j.idx] = out
	j.results[j.idx] = j.r
	d := time.Since(j.start)
	j.o.Metrics.Histogram(metrics.HistCampaignSeed).Observe(d)
	j.o.Metrics.Counter(metrics.CounterSeedsAnalyzed).Inc()
	countFailures(j.o.Metrics, out.Failures)
	if rs := out.Remarks; rs != nil {
		countRemarks(j.o.Metrics, rs)
		if j.o.RemarkLog != nil {
			buf.remarks = remarkFields(j.seed, rs)
		}
	}
	var ckErr error
	if j.o.Checkpoint != nil {
		// Save immediately (crash resilience does not wait for sequencing);
		// only the checkpoint *event* is deferred to the seed's slot.
		ckStart := buf.now()
		ckErr = j.o.Checkpoint.Save(j.seed, out)
		if ckErr == nil {
			buf.emit("checkpoint", map[string]any{"seed": j.seed})
			if buf.timed() {
				buf.span("checkpoint", span.CatCheckpoint, w+1, ckStart, span.Int64("seed", j.seed))
			}
		}
	}
	buf.emit("seed_end", map[string]any{
		"seed": j.seed, "ok": out.Ok,
		"failures": len(out.Failures), "d_us": d.Microseconds(),
	})
	if buf.timed() {
		buf.span("finalize", span.CatSeed, w+1, fstart,
			span.Int64("seed", j.seed), span.Bool("ok", out.Ok))
	}
	buf.findings = out.Findings
	j.flush(j.lastSlot(), buf)
	return ckErr
}

// flush schedules buf's contents for in-order delivery when slot's turn
// comes.
func (j *seedJob) flush(slot int, buf *slotBuf) {
	j.seq.Done(slot, buf.flush)
}

// skipUnits releases the seed's unit slots unused (restored seeds and
// program-level failures have no config units).
func (j *seedJob) skipUnits() {
	for u := range j.cfgs {
		j.seq.Done(j.slot+1+u, nil)
	}
}

// lastSlot is the seed's closing slot (checkpoint + seed_end + findings).
func (j *seedJob) lastSlot() int { return j.slot + 1 + len(j.cfgs) }
