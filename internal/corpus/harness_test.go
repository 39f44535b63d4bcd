package corpus

import (
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcelens/internal/harness"
	"dcelens/internal/metrics"
	"dcelens/internal/pipeline"
	"dcelens/internal/span"
)

// TestCrashSignatureIgnoresSinks: one injected panic buckets under one
// signature whatever observability is attached. The hook composition sits
// between the pipeline and the faulting guard; if its frames reached the
// signature, turning on -remarks would move a crash to a "new" bucket.
func TestCrashSignatureIgnoresSinks(t *testing.T) {
	faults, err := harness.ParseFaults("panic:gvn:2:gcc-sim -O3")
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		o    Options
	}{
		{"no sinks", Options{}},
		{"metrics", Options{Metrics: metrics.New()}},
		{"remarks", Options{Remarks: true}},
		{"trace", Options{Trace: true}},
		{"spans", Options{Spans: span.New(io.Discard)}},
		{"all", Options{Metrics: metrics.New(), Remarks: true, Trace: true, Spans: span.New(io.Discard)}},
	}
	want := ""
	for _, v := range variants {
		o := v.o
		o.Programs, o.BaseSeed, o.Faults = 3, 1, faults
		o.Personalities, o.Levels = []pipeline.Personality{pipeline.GCC}, []pipeline.Level{pipeline.O3}
		c, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Stats.Failures) != 1 || c.Stats.Failures[0].Kind != harness.KindCrash {
			t.Fatalf("%s: failures = %+v, want the one injected crash", v.name, c.Stats.Failures)
		}
		sig := c.Stats.Failures[0].Signature
		if !strings.HasPrefix(sig, "internal/opt.ObservedPipeline<-") {
			t.Errorf("%s: signature %q does not start at the pipeline", v.name, sig)
		}
		if want == "" {
			want = sig
		} else if sig != want {
			t.Errorf("%s: signature %q, want %q (as with no sinks)", v.name, sig, want)
		}
	}
}

// TestFaultInjectionCampaign is the tentpole acceptance test: a campaign
// with one pass instance panicking and another stalling still completes,
// reports exactly the injected crash and timeout buckets with reproducers,
// and leaves every other seed's statistics identical to a fault-free run.
func TestFaultInjectionCampaign(t *testing.T) {
	base := Options{Programs: 6, BaseSeed: 100}
	baseline, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Stats.Failures) != 0 {
		t.Fatalf("baseline not fault-free: %v", baseline.Stats.Errors)
	}

	faults, err := harness.ParseFaults("panic:gvn:101:gcc-sim -O3,stall:simplifycfg:103:llvm-sim -O1")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(Options{Programs: 6, BaseSeed: 100, Faults: faults})
	if err != nil {
		t.Fatalf("faulted campaign did not complete: %v", err)
	}

	s := faulted.Stats
	if s.Crashes != 1 || s.Timeouts != 1 || s.Miscompiles != 0 || s.Infeasible != 0 {
		t.Fatalf("failure counts = %d/%d/%d/%d, want 1 crash + 1 timeout",
			s.Crashes, s.Timeouts, s.Miscompiles, s.Infeasible)
	}
	if len(s.Failures) != 2 {
		t.Fatalf("failures: %+v", s.Failures)
	}
	var crash, timeout *harness.Failure
	for i := range s.Failures {
		switch s.Failures[i].Kind {
		case harness.KindCrash:
			crash = &s.Failures[i]
		case harness.KindTimeout:
			timeout = &s.Failures[i]
		}
	}
	if crash.Seed != 101 || crash.Config != "gcc-sim -O3" {
		t.Errorf("crash at the wrong unit: %+v", crash)
	}
	if !strings.Contains(crash.Message, "injected fault") {
		t.Errorf("crash message: %q", crash.Message)
	}
	if !strings.Contains(crash.Signature, "internal/opt") {
		t.Errorf("crash not bucketed by the faulting pipeline frames: %q", crash.Signature)
	}
	if crash.Source == "" || !strings.Contains(crash.Source, "DCEMarker") {
		t.Error("crash carries no instrumented reproducer")
	}
	if timeout.Seed != 103 || timeout.Config != "llvm-sim -O1" {
		t.Errorf("timeout at the wrong unit: %+v", timeout)
	}
	if timeout.Signature != "deadline:simplifycfg" {
		t.Errorf("timeout signature: %q", timeout.Signature)
	}

	if len(s.CrashBuckets) != 2 {
		t.Fatalf("buckets: %+v", s.CrashBuckets)
	}
	for _, b := range s.CrashBuckets {
		if b.Count != 1 || len(b.Seeds) != 1 {
			t.Errorf("bucket %s miscounted: %+v", b.Signature, b)
		}
	}

	// Graceful degradation: the faulted seeds keep every other config's
	// analysis — one bad config does not drop the rest.
	for _, tc := range []struct {
		seed int64
		idx  int
	}{{101, 1}, {103, 3}} {
		out := faulted.Outcomes[tc.idx]
		if out.Seed != tc.seed || !out.Ok {
			t.Fatalf("faulted seed %d abandoned: %+v", tc.seed, out)
		}
		if want := 2*len(pipeline.Levels) - 1; len(out.Configs) != want {
			t.Errorf("seed %d kept %d configs, want %d", tc.seed, len(out.Configs), want)
		}
		ref := baseline.Outcomes[tc.idx]
		if out.Markers != ref.Markers || out.Dead != ref.Dead || out.Alive != ref.Alive {
			t.Errorf("seed %d marker stats perturbed: %+v vs %+v", tc.seed, out, ref)
		}
	}

	// Unaffected seeds' statistics are identical to the fault-free run.
	for i, out := range faulted.Outcomes {
		if out.Seed == 101 || out.Seed == 103 {
			continue
		}
		if !reflect.DeepEqual(out, baseline.Outcomes[i]) {
			t.Errorf("seed %d perturbed by faults elsewhere:\n%+v\nvs\n%+v", out.Seed, out, baseline.Outcomes[i])
		}
	}
}

// TestCorruptFaultCampaign: corrupt IR handed to the rest of the pipeline
// surfaces as a verifier ICE (a crash), isolated to its config.
func TestCorruptFaultCampaign(t *testing.T) {
	faults, err := harness.ParseFaults("corrupt:globaldce:102:gcc-sim -O1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(Options{
		Programs: 1,
		BaseSeed: 102,
		Levels:   []pipeline.Level{pipeline.O1},
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Crashes != 1 {
		t.Fatalf("corrupt IR not caught as a crash: %+v", c.Stats.Errors)
	}
	f := c.Stats.Failures[0]
	if f.Config != "gcc-sim -O1" || f.Kind != harness.KindCrash {
		t.Errorf("failure: %+v", f)
	}
	// The other personality's config at the same level is untouched.
	if c.Outcomes[0].Ok == false || len(c.Outcomes[0].Configs) != 1 {
		t.Errorf("healthy config dropped: %+v", c.Outcomes[0])
	}
}

// TestFaultedCampaignDeterminism: two identical faulted runs produce the
// same sorted errors, buckets, statistics, and findings (satellite:
// deterministic output even under failures).
func TestFaultedCampaignDeterminism(t *testing.T) {
	faults, err := harness.ParseFaults("panic:gvn:101:gcc-sim -O3,stall:simplifycfg:103:llvm-sim -O1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Campaign {
		c, err := Run(Options{Programs: 6, BaseSeed: 100, Faults: faults, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := run(), run()
	if !reflect.DeepEqual(c1.Stats.Errors, c2.Stats.Errors) {
		t.Errorf("errors differ:\n%v\nvs\n%v", c1.Stats.Errors, c2.Stats.Errors)
	}
	if !reflect.DeepEqual(c1.Stats.CrashBuckets, c2.Stats.CrashBuckets) {
		t.Errorf("buckets differ:\n%+v\nvs\n%+v", c1.Stats.CrashBuckets, c2.Stats.CrashBuckets)
	}
	if !reflect.DeepEqual(c1.Findings, c2.Findings) {
		t.Error("findings differ")
	}
	if !reflect.DeepEqual(c1.Stats.Missed, c2.Stats.Missed) {
		t.Error("missed counts differ")
	}
}

// TestCheckpointResume is the tentpole resume-acceptance test: a campaign
// killed partway and resumed from its checkpoint aggregates byte-identically
// to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	full := Options{Programs: 5, BaseSeed: 200}
	uninterrupted, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp.json")
	// "Kill" the campaign after two seeds by only asking for two.
	if _, err := Run(Options{Programs: 2, BaseSeed: 200, Checkpoint: harness.NewCheckpoint(path)}); err != nil {
		t.Fatal(err)
	}
	cp, err := harness.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 2 {
		t.Fatalf("checkpoint has %d seeds, want 2", cp.Len())
	}

	resumed, err := Run(Options{Programs: 5, BaseSeed: 200, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	// Restored seeds have no in-memory ProgramResult; fresh ones do.
	if resumed.Programs[0] != nil || resumed.Programs[1] != nil {
		t.Error("restored seeds recomputed")
	}
	if resumed.Programs[4] == nil {
		t.Error("fresh seed missing its result")
	}

	// Byte-identical outcomes, hence identical aggregation.
	for i := range uninterrupted.Outcomes {
		a, _ := json.Marshal(uninterrupted.Outcomes[i])
		b, _ := json.Marshal(resumed.Outcomes[i])
		if string(a) != string(b) {
			t.Errorf("seed %d outcome differs after resume:\n%s\nvs\n%s",
				uninterrupted.Outcomes[i].Seed, a, b)
		}
	}
	if !reflect.DeepEqual(uninterrupted.Stats, resumed.Stats) {
		t.Error("stats differ after resume")
	}
	if !reflect.DeepEqual(uninterrupted.Findings, resumed.Findings) {
		t.Error("findings differ after resume")
	}

	// A differently-configured campaign must refuse the checkpoint.
	if _, err := Run(Options{Programs: 5, BaseSeed: 999, Checkpoint: cp}); err == nil {
		t.Error("checkpoint accepted a mismatched campaign")
	}
}
