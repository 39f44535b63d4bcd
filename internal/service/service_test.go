package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/report"
)

// fastSpec is a small single-compiler campaign: n seeds, three levels, so
// level-diff findings are still possible but each seed costs only three
// units.
func fastSpec(n int) Spec {
	return Spec{
		Programs:      n,
		BaseSeed:      1,
		Workers:       1,
		Personalities: []string{"gcc"},
		Levels:        []string{"O1", "O2", "O3"},
	}
}

// refReport runs the spec's campaign directly (no service, no
// interruptions) and renders its report — the byte-identity reference for
// every resilience path.
func refReport(t *testing.T, spec Spec) string {
	t.Helper()
	ps, err := spec.personalities()
	if err != nil {
		t.Fatal(err)
	}
	ls, err := spec.levels()
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Run(corpus.Options{
		Programs:      spec.Programs,
		BaseSeed:      spec.BaseSeed,
		Workers:       1,
		Personalities: ps,
		Levels:        ls,
	})
	if err != nil {
		t.Fatal(err)
	}
	return report.Summary(c)
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.State(); s.Terminal() {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	return ""
}

func startEngine(t *testing.T, l Limits) *Engine {
	t.Helper()
	e := New("dce-serve-test", l)
	e.Start()
	t.Cleanup(e.Drain)
	return e
}

func TestJobLifecycleToDone(t *testing.T) {
	hist := t.TempDir()
	e := startEngine(t, Limits{Executors: 1, HistoryDir: hist})
	j, err := e.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-1" {
		t.Fatalf("first job id = %q, want job-1", j.ID)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("state = %s (err %q), want done", s, j.Status().Error)
	}
	st := j.Status()
	if st.Attempt != 1 || st.SeedsDone != 3 || st.Skipped != 0 || st.Error != "" {
		t.Fatalf("done status = %+v", st)
	}
	if st.Snapshot == "" {
		t.Fatal("done job has no history snapshot path")
	}
	if _, err := os.Stat(st.Snapshot); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	text, ok := j.Report()
	if !ok || text == "" {
		t.Fatalf("report missing (ok=%v)", ok)
	}
	if want := refReport(t, fastSpec(3)); text != want {
		t.Fatalf("service report differs from direct run:\n--- service\n%s\n--- direct\n%s", text, want)
	}
	if got := e.Metrics().Counter(CounterDone).Value(); got != 1 {
		t.Fatalf("done counter = %d, want 1", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := New("dce-serve-test", Limits{MaxSeeds: 5, MaxWorkers: 2, MaxAttempts: 4})
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"zero programs", Spec{}, "programs: must be positive"},
		{"over seed cap", Spec{Programs: 6}, "seed cap"},
		{"bad personality", Spec{Programs: 1, Personalities: []string{"icc"}}, "unknown compiler"},
		{"bad level", Spec{Programs: 1, Levels: []string{"O9"}}, "unknown level"},
		{"bad inject", Spec{Programs: 1, Inject: "explode:gvn:1"}, "fault"},
	}
	for _, tc := range cases {
		if _, err := e.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if got := e.Metrics().Counter(CounterRejected).Value(); got != int64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", got, len(cases))
	}
	// Clamps rather than rejections: workers to the cap, attempts to the cap.
	j, err := e.Submit(Spec{Programs: 2, Workers: 99, MaxAttempts: 99})
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Workers != 2 || j.Spec.MaxAttempts != 4 {
		t.Fatalf("clamped spec = workers %d, attempts %d; want 2, 4", j.Spec.Workers, j.Spec.MaxAttempts)
	}
}

// TestBackpressure: with no executor draining it, the queue fills and
// further submissions bounce with ErrQueueFull — nothing blocks, nothing
// buffers beyond the bound.
func TestBackpressure(t *testing.T) {
	e := New("dce-serve-test", Limits{QueueDepth: 2}) // deliberately not started
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(fastSpec(1)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if e.Health() != "degraded" {
		t.Fatalf("health with full queue = %q, want degraded", e.Health())
	}
	if _, err := e.Submit(fastSpec(1)); err != ErrQueueFull {
		t.Fatalf("submit on full queue: err = %v, want ErrQueueFull", err)
	}
	if got := e.Metrics().Counter(CounterRejected).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if depth, capacity := e.QueueDepth(); depth != 2 || capacity != 2 {
		t.Fatalf("queue = %d/%d, want 2/2", depth, capacity)
	}

	// Draining an engine with queued jobs cancels them in place.
	e.Drain()
	if e.Health() != "draining" {
		t.Fatalf("health after drain = %q, want draining", e.Health())
	}
	if _, err := e.Submit(fastSpec(1)); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	for _, j := range e.Jobs() {
		if j.State() != StateCancelled {
			t.Fatalf("queued job %s after drain = %s, want cancelled", j.ID, j.State())
		}
	}
	if got := e.Metrics().Counter(CounterCancelled).Value(); got != 2 {
		t.Fatalf("cancelled counter = %d, want 2", got)
	}
}

// TestChaosRetryByteIdentical is the acceptance chaos test: a job whose
// worker panics twice is retried from its checkpoint with backoff, and
// the report it finally produces is byte-identical to an uninterrupted
// serial run's.
func TestChaosRetryByteIdentical(t *testing.T) {
	e := startEngine(t, Limits{Executors: 1, Backoff: time.Millisecond})
	spec := fastSpec(4)
	spec.MaxAttempts = 3
	spec.Chaos = &Chaos{CrashAtSeed: 3, Times: 2} // seeds are 1..4
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("state = %s (err %q), want done after retries", s, j.Status().Error)
	}
	st := j.Status()
	if st.Attempt != 3 {
		t.Fatalf("attempts = %d, want 3 (two chaos crashes + one clean run)", st.Attempt)
	}
	if got := e.Metrics().Counter(CounterRetried).Value(); got != 2 {
		t.Fatalf("retried counter = %d, want 2", got)
	}
	text, _ := j.Report()
	if want := refReport(t, fastSpec(4)); text != want {
		t.Fatalf("retried report differs from uninterrupted run:\n--- retried\n%s\n--- direct\n%s", text, want)
	}
}

// TestRetriesExhausted: a chaos crash on every attempt fails the job with
// the attempt trail in its error; completed seeds stay checkpointed.
func TestRetriesExhausted(t *testing.T) {
	e := startEngine(t, Limits{Executors: 1, Backoff: time.Millisecond})
	spec := fastSpec(3)
	spec.MaxAttempts = 2
	spec.Chaos = &Chaos{CrashAtSeed: 2, Times: 99}
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateFailed {
		t.Fatalf("state = %s, want failed", s)
	}
	st := j.Status()
	if !strings.Contains(st.Error, "attempt 2/2") || !strings.Contains(st.Error, "chaos") {
		t.Fatalf("error = %q, want the exhausted-attempts trail", st.Error)
	}
	if got := e.Metrics().Counter(CounterFailed).Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

// TestDrainMidJobAndResume: draining mid-campaign checkpoints every
// completed seed and parks the job cancelled; resubmitting the spec with
// the same checkpoint path on a fresh engine resumes exactly the unrun
// seeds and reports byte-identically to an uninterrupted run.
func TestDrainMidJobAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "drain.checkpoint.json")
	spec := fastSpec(40)
	spec.Checkpoint = ckpt

	e := New("dce-serve-test", Limits{Executors: 1})
	e.Start()
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one seed land, then pull the plug.
	for deadline := time.Now().Add(30 * time.Second); j.Status().SeedsDone == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no seed completed before the drain")
		}
		time.Sleep(time.Millisecond)
	}
	e.Drain()
	if s := j.State(); s != StateCancelled {
		t.Fatalf("drained job state = %s, want cancelled", s)
	}
	st := j.Status()
	if st.Skipped == 0 {
		t.Fatal("drained job skipped no seeds; the campaign finished before the drain could interrupt it")
	}
	if !strings.Contains(st.Error, "resumable") {
		t.Fatalf("drained job error = %q, want a resumable note", st.Error)
	}
	cp, err := harness.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len()+st.Skipped != spec.Programs {
		t.Fatalf("checkpoint holds %d seeds, %d skipped, want them to cover all %d",
			cp.Len(), st.Skipped, spec.Programs)
	}

	// Resume on a fresh engine: same spec, same checkpoint path.
	e2 := startEngine(t, Limits{Executors: 1})
	j2, err := e2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("resumed job state = %s (err %q), want done", s, j2.Status().Error)
	}
	text, _ := j2.Report()
	ref := fastSpec(40)
	if want := refReport(t, ref); text != want {
		t.Fatal("resumed report differs from an uninterrupted run's")
	}
}

// TestWallDeadline: a job whose wall budget expires mid-campaign fails —
// not hangs — with its completed seeds checkpointed and the unrun rest
// counted.
func TestWallDeadline(t *testing.T) {
	e := startEngine(t, Limits{Executors: 1})
	spec := fastSpec(50)
	spec.DeadlineMs = 25
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateFailed {
		t.Fatalf("state = %s, want failed on deadline", s)
	}
	st := j.Status()
	if !strings.Contains(st.Error, "wall deadline exceeded") {
		t.Fatalf("error = %q, want wall-deadline message", st.Error)
	}
	if st.Skipped == 0 {
		t.Fatal("deadline expiry skipped no seeds")
	}
}

// TestCancelRunningJob: cancelling a running job stops it at the next
// seed boundary via the same cooperative hook a drain uses.
func TestCancelRunningJob(t *testing.T) {
	e := startEngine(t, Limits{Executors: 1})
	j, err := e.Submit(fastSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); j.Status().SeedsDone == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no seed completed before the cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := e.Cancel(j.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	if s := waitTerminal(t, j); s != StateCancelled {
		t.Fatalf("cancelled job state = %s, want cancelled", s)
	}
	if st := j.Status(); st.Skipped == 0 {
		t.Fatal("cancel skipped no seeds; the campaign finished before the cancel could interrupt it")
	}
}

// TestUnitFaultInjection: unit-level harness faults (Spec.Inject) surface
// as campaign failures, not job crashes — the job completes with the
// failure recorded, no retries spent.
func TestUnitFaultInjection(t *testing.T) {
	e := startEngine(t, Limits{Executors: 1})
	spec := fastSpec(3)
	spec.Inject = "panic:*:2"
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("state = %s, want done (unit faults are isolated)", s)
	}
	if st := j.Status(); st.Attempt != 1 {
		t.Fatalf("attempts = %d, want 1 (no job-level retry for unit faults)", st.Attempt)
	}
	snap := j.Snapshot()
	if snap == nil || snap.Failures["crash"] == 0 {
		t.Fatalf("snapshot failures = %+v, want injected crashes recorded", snap)
	}
}
