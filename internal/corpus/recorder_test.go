package corpus

import (
	"io"
	"testing"
	"time"

	"dcelens/internal/metrics"
	"dcelens/internal/opt"
	"dcelens/internal/span"
)

// TestRecorderProjects checks the per-unit recorder's projections: one
// pass histogram observation per instance, one changed increment per
// changing instance, the visited/skipped split, pipeline.runs per
// pipeline, phase histograms for every phase (an aborted one included)
// with stage.asm.scans riding codegen, and spans for the passes and the
// completed phases only.
func TestRecorderProjects(t *testing.T) {
	reg := metrics.New()
	buf := &slotBuf{o: &Options{Spans: span.New(io.Discard)}}
	r := newRecorder(reg, buf, 1)
	now := time.Now()
	r.Phase(metrics.PhaseLower, now, time.Millisecond, false)
	r.BeginPipeline(nil)
	r.AfterPass(nil, "dce", 0, 0, opt.PassStats{Changed: true, Duration: time.Millisecond, FuncsVisited: 2})
	r.AfterPass(nil, "dce", 1, 0, opt.PassStats{Duration: time.Millisecond, FuncsSkipped: 2})
	r.AfterPass(nil, "gvn", 2, 0, opt.PassStats{Changed: true, Duration: time.Millisecond, FuncsVisited: 1, FuncsSkipped: 1})
	r.Phase(metrics.PhaseOpt, now, time.Millisecond, true)
	r.Phase(metrics.PhaseCodegen, now, time.Millisecond, false)

	counters := map[string]int64{
		"pipeline.runs": 1, "pass.dce.changed": 1, "pass.gvn.changed": 1,
		metrics.CounterPassVisited: 3, metrics.CounterPassSkipped: 3, "stage.asm.scans": 1,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hists := map[string]int64{"pass.dce": 2, "pass.gvn": 1, "phase.lower": 1, "phase.opt": 1, "phase.codegen": 1}
	for name, want := range hists {
		if got := reg.Histogram(name).Count(); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	var names []string
	for _, sp := range buf.spans {
		names = append(names, sp.Cat+":"+sp.Name)
	}
	want := []string{"phase:lower", "pass:dce", "pass:dce", "pass:gvn", "phase:codegen"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}

	// Nothing to record into: no recorder at all, so a bare unit attaches
	// nothing and its program-build phases read no clock.
	bare := newRecorder(nil, &slotBuf{o: &Options{}}, 1)
	if bare != nil {
		t.Fatal("recorder without registry or spans should be nil")
	}
	if !bare.now().IsZero() {
		t.Error("nil recorder read the clock")
	}
	bare.phase(metrics.PhaseGenerate, time.Time{}) // must not panic
}
