// Package service turns campaign running into a resilient job engine:
// campaign-as-a-service. Specs are submitted (POST /jobs via server.go, or
// Engine.Submit directly), admitted into a bounded queue — a full queue
// pushes back with ErrQueueFull instead of buffering without bound — and
// executed on a small pool of executors, each job an ordinary
// internal/corpus campaign with the full observability stack attached
// (per-job metrics registry, event log tail, live progress).
//
// Resilience is the point:
//
//   - Budgets: per-job wall-clock deadlines ride the harness watchdog (a
//     unit optimizing past the deadline fails as a "deadline:wall"
//     timeout) and fold into the corpus Stop hook (seeds not yet started
//     are skipped), while engine-level caps bound seed counts and worker
//     counts per job.
//   - Retries: a crashed job (any corpus.Run error — a panicking finalize,
//     a checkpoint write failure) is retried with exponential backoff from
//     its last JSON checkpoint, up to a bounded attempt count. Completed
//     seeds restore instead of recomputing, and because aggregation is
//     outcome-only, a retried job's report is byte-identical to an
//     uninterrupted run's.
//   - Graceful drain: Drain stops admission, asks every running job to
//     stop via the cooperative corpus Stop hook (in-flight seeds finish
//     and checkpoint; unstarted seeds are skipped), cancels queued jobs,
//     and returns once every executor has exited — nothing is lost, every
//     interrupted job resumes from a consistent checkpoint.
//
// Job lifecycle: queued → running → done | failed | cancelled, with
// checkpointing interposed between running and its terminal state while a
// drain (or cancel) request is being honoured. A retry moves the job back
// to queued for the backoff sleep, then running again.
package service

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/history"
	"dcelens/internal/journal"
	"dcelens/internal/metrics"
	"dcelens/internal/pipeline"
	"dcelens/internal/report"
	"dcelens/internal/span"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted, waiting for an executor (also the backoff wait
	// between retry attempts).
	StateQueued State = "queued"
	// StateRunning: an executor is running the campaign.
	StateRunning State = "running"
	// StateCheckpointing: a drain or cancel request arrived; in-flight
	// seeds are finishing and checkpointing before the job parks.
	StateCheckpointing State = "checkpointing"
	// StateDone: the campaign completed; report and history snapshot exist.
	StateDone State = "done"
	// StateFailed: retries exhausted or the wall deadline expired. The
	// checkpoint keeps every completed seed.
	StateFailed State = "failed"
	// StateCancelled: drained or cancelled before completion; resumable
	// from the checkpoint.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Engine metric names (the service half of /metrics; per-job campaign
// telemetry lives in each job's own registry).
const (
	CounterSubmitted = "service.jobs.submitted"
	CounterRejected  = "service.jobs.rejected" // queue-full and draining refusals
	CounterRetried   = "service.jobs.retried"
	CounterDone      = "service.jobs.done"
	CounterFailed    = "service.jobs.failed"
	CounterCancelled = "service.jobs.cancelled"
	GaugeQueueDepth  = "service.queue.depth"
)

// Submission errors. The HTTP layer maps ErrQueueFull to 429 (with
// Retry-After), ErrDraining to 503; anything else is a 400 spec error.
var (
	ErrQueueFull = errors.New("admission queue full")
	ErrDraining  = errors.New("service is draining, not admitting jobs")
)

// Spec is one submitted campaign job. The zero values of the optional
// fields inherit the corpus defaults (both personalities, all levels).
type Spec struct {
	// Programs is the corpus size (required, positive, capped by
	// Limits.MaxSeeds).
	Programs int `json:"programs"`
	// BaseSeed offsets the per-program seeds.
	BaseSeed int64 `json:"base_seed"`
	// Workers bounds the job's in-process parallelism (default 1, capped
	// by Limits.MaxWorkers).
	Workers int `json:"workers,omitempty"`
	// Personalities restricts the compilers ("gcc", "llvm"; default both).
	Personalities []string `json:"personalities,omitempty"`
	// Levels restricts the optimization levels ("O0".."O3", "Os"; default
	// all five).
	Levels []string `json:"levels,omitempty"`
	// Trace records per-pass profiles and marker provenance.
	Trace bool `json:"trace,omitempty"`
	// Remarks collects optimization remarks: findings carry nearest-miss
	// chains, and the finished job exposes a remark summary
	// (GET /jobs/{id}/remarks).
	Remarks bool `json:"remarks,omitempty"`
	// VerifySemantics executes every compiled module against ground truth.
	VerifySemantics bool `json:"verify,omitempty"`
	// StepBudget bounds pass instances per compilation (0: harness
	// default).
	StepBudget int `json:"step_budget,omitempty"`
	// DeadlineMs is the job's wall-clock budget, measured from its first
	// run attempt; 0 means unbounded. Expiry fails the job (checkpoint
	// retained) rather than letting it run forever.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts bounds the run attempts (first run + retries); 0 means
	// Limits.MaxAttempts, and Limits.MaxAttempts caps it either way.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Checkpoint is an explicit checkpoint file path: a drained job's spec
	// resubmitted with the same path resumes its completed seeds. Empty
	// uses WorkDir (or memory) under the job id.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Inject is a harness fault-injection spec
	// ("kind:pass:seed[:config],...") for unit-level chaos.
	Inject string `json:"inject,omitempty"`
	// Chaos injects a job-level crash (the retry path's test seam).
	Chaos *Chaos `json:"chaos,omitempty"`
}

// Chaos deterministically crashes the whole job — not just one unit — so
// the retry-from-checkpoint path is testable: when the campaign reaches
// CrashAtSeed's finalize (before that seed checkpoints), the job panics.
// Only the first Times attempts crash; later attempts run through, so a
// job with MaxAttempts > Times recovers and its final report is
// byte-identical to an undisturbed run's.
type Chaos struct {
	CrashAtSeed int64 `json:"crash_at_seed"`
	Times       int   `json:"times,omitempty"` // default 1
}

// Limits are the engine-wide resource bounds.
type Limits struct {
	// QueueDepth bounds the admission queue (default 8). A submit against
	// a full queue returns ErrQueueFull immediately — backpressure, not
	// buffering.
	QueueDepth int
	// Executors is the number of jobs run concurrently (default 2).
	Executors int
	// MaxSeeds caps Spec.Programs (default 1000); larger specs are
	// rejected at submission.
	MaxSeeds int
	// MaxWorkers caps Spec.Workers (default GOMAXPROCS); larger requests
	// are clamped, not rejected.
	MaxWorkers int
	// MaxAttempts caps per-job run attempts (default 3).
	MaxAttempts int
	// Backoff is the first retry delay; it doubles per attempt (default
	// 100ms).
	Backoff time.Duration
	// WorkDir, when set, holds per-job checkpoint files (job-N.checkpoint.json);
	// empty keeps checkpoints in memory (still enough for in-process
	// retries).
	WorkDir string
	// HistoryDir, when set, receives a fingerprinted history snapshot for
	// every job that reaches StateDone, so dce-trend diffs across jobs.
	HistoryDir string
}

func (l *Limits) fill() {
	if l.QueueDepth <= 0 {
		l.QueueDepth = 8
	}
	if l.Executors <= 0 {
		l.Executors = 2
	}
	if l.MaxSeeds <= 0 {
		l.MaxSeeds = 1000
	}
	if l.MaxWorkers <= 0 {
		l.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if l.MaxAttempts <= 0 {
		l.MaxAttempts = 3
	}
	if l.Backoff <= 0 {
		l.Backoff = 100 * time.Millisecond
	}
}

// Engine is the job engine: a bounded admission queue feeding a fixed
// executor pool, with per-job budgets, retries, and cooperative drain.
type Engine struct {
	Tool   string // names the engine in snapshots and /healthz
	limits Limits
	reg    *metrics.Registry
	queue  chan *Job
	quit   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	tailed   []*Job // the newest finished jobs that ran, oldest first: only they keep their tails
	draining bool
	nextID   int
	started  bool
}

// keptTails is how many finished jobs keep their event and span tails. It
// is more than the number of jobs that can finish between a client seeing
// its job done and reading its tails: dcebench reads them within one 50 ms
// poll, and the service tests read a job's tails after at most three more
// jobs have finished.
const keptTails = 8

// New builds an engine with the given limits (zero values filled with
// defaults). Call Start before submitting.
func New(tool string, limits Limits) *Engine {
	limits.fill()
	return &Engine{
		Tool:   tool,
		limits: limits,
		reg:    metrics.New(),
		queue:  make(chan *Job, limits.QueueDepth),
		quit:   make(chan struct{}),
		jobs:   map[string]*Job{},
	}
}

// Limits returns the engine's effective (default-filled) limits.
func (e *Engine) Limits() Limits { return e.limits }

// Metrics returns the engine's service-level registry (queue depth,
// per-outcome job counters).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Start launches the executor pool. Idempotent.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	for i := 0; i < e.limits.Executors; i++ {
		e.wg.Add(1)
		go e.executor()
	}
}

// Submit validates and admits one job. A full queue returns ErrQueueFull
// without blocking (the backpressure contract: the caller is told to
// retry later, nothing is buffered); a draining engine returns
// ErrDraining; an invalid or over-budget spec returns a descriptive
// error. On success the job is queued and its id assigned.
func (e *Engine) Submit(spec Spec) (*Job, error) {
	if err := e.validate(&spec); err != nil {
		e.reg.Counter(CounterRejected).Inc()
		return nil, err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		e.reg.Counter(CounterRejected).Inc()
		return nil, ErrDraining
	}
	e.nextID++
	j := newJob(fmt.Sprintf("job-%d", e.nextID), spec, &e.limits)
	select {
	case e.queue <- j:
		e.jobs[j.ID] = j
		e.order = append(e.order, j.ID)
		e.mu.Unlock()
		e.reg.Counter(CounterSubmitted).Inc()
		e.updateQueueGauge()
		return j, nil
	default:
		e.nextID-- // the id was never observable
		e.mu.Unlock()
		e.reg.Counter(CounterRejected).Inc()
		return nil, ErrQueueFull
	}
}

// validate normalizes a spec against the engine limits, rejecting what
// cannot be clamped.
func (e *Engine) validate(spec *Spec) error {
	if spec.Programs <= 0 {
		return fmt.Errorf("programs: must be positive")
	}
	if spec.Programs > e.limits.MaxSeeds {
		return fmt.Errorf("programs: %d exceeds the per-job seed cap %d", spec.Programs, e.limits.MaxSeeds)
	}
	if spec.Workers <= 0 {
		spec.Workers = 1
	}
	if spec.Workers > e.limits.MaxWorkers {
		spec.Workers = e.limits.MaxWorkers
	}
	if spec.MaxAttempts <= 0 || spec.MaxAttempts > e.limits.MaxAttempts {
		spec.MaxAttempts = e.limits.MaxAttempts
	}
	if _, err := spec.personalities(); err != nil {
		return err
	}
	if _, err := spec.levels(); err != nil {
		return err
	}
	if spec.Inject != "" {
		if _, err := harness.ParseFaults(spec.Inject); err != nil {
			return err
		}
	}
	if spec.Chaos != nil && spec.Chaos.Times <= 0 {
		spec.Chaos.Times = 1
	}
	return nil
}

// Job looks up a job by id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id])
	}
	return out
}

// Cancel requests cancellation: a queued job is cancelled in place, a
// running job is asked to stop via its drain hook (in-flight seeds finish
// and checkpoint first). Terminal jobs are left alone.
func (e *Engine) Cancel(id string) (*Job, bool) {
	j, ok := e.Job(id)
	if !ok {
		return nil, false
	}
	if j.cancelQueued() {
		e.reg.Counter(CounterCancelled).Inc()
		return j, true
	}
	j.requestStop()
	return j, true
}

// Health reports the admission health: "draining" once Drain began,
// "degraded" while the queue is full (submissions are bouncing), "ok"
// otherwise.
func (e *Engine) Health() string {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	switch {
	case draining:
		return "draining"
	case len(e.queue) >= cap(e.queue):
		return "degraded"
	default:
		return "ok"
	}
}

// QueueDepth returns (queued, capacity).
func (e *Engine) QueueDepth() (int, int) { return len(e.queue), cap(e.queue) }

// Drain gracefully shuts the engine down: admission stops (Submit returns
// ErrDraining), every running job is asked to stop via the cooperative
// corpus hook — seeds in flight finish and checkpoint, unstarted seeds
// are skipped — executors exit, and still-queued jobs are cancelled.
// Nothing is lost: every non-done job's checkpoint holds all its
// completed seeds. Idempotent; returns when the engine is fully stopped.
func (e *Engine) Drain() {
	e.mu.Lock()
	first := !e.draining
	if first {
		e.draining = true
		close(e.quit)
	}
	e.mu.Unlock()
	e.wg.Wait()
	if !first {
		return
	}
	for {
		select {
		case j := <-e.queue:
			if j.cancelQueued() {
				e.reg.Counter(CounterCancelled).Inc()
			}
		default:
			e.updateQueueGauge()
			return
		}
	}
}

func (e *Engine) updateQueueGauge() {
	e.reg.Gauge(GaugeQueueDepth).Set(int64(len(e.queue)))
}

// stopping reports whether the engine has begun draining (the lock-free
// form the per-seed Stop hook polls).
func (e *Engine) stopping() bool {
	select {
	case <-e.quit:
		return true
	default:
		return false
	}
}

// executor is one worker of the job pool: pull, run, repeat, exit on
// drain.
func (e *Engine) executor() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case j := <-e.queue:
			e.updateQueueGauge()
			e.runJob(j)
		}
	}
}

// runJob drives one job through its attempts: run the campaign, and on a
// job-level crash retry from the checkpoint with exponential backoff
// until the attempt budget runs out. Completed seeds restore from the
// checkpoint on every retry, so work is never redone and the final report
// is byte-identical to an undisturbed run's.
func (e *Engine) runJob(j *Job) {
	if j.State() == StateCancelled {
		return // cancelled while queued
	}
	if e.stopping() {
		// Popped during the drain race: park it unrun, like the queued rest.
		if j.cancelQueued() {
			e.reg.Counter(CounterCancelled).Inc()
		}
		return
	}
	defer e.retire(j)
	j.startClock()
	backoff := e.limits.Backoff
	for attempt := 1; ; attempt++ {
		c, err := j.run(e, attempt)
		if err == nil {
			e.settle(j, c)
			return
		}
		j.recordError(attempt, err)
		if attempt >= j.Spec.MaxAttempts {
			j.finish(StateFailed, fmt.Sprintf("attempt %d/%d: %v", attempt, j.Spec.MaxAttempts, err))
			e.reg.Counter(CounterFailed).Inc()
			return
		}
		e.reg.Counter(CounterRetried).Inc()
		j.setState(StateQueued) // backing off for the next attempt
		select {
		case <-time.After(backoff):
			backoff *= 2
		case <-e.quit:
			j.finish(StateCancelled, "drained during retry backoff (resumable from checkpoint)")
			e.reg.Counter(CounterCancelled).Inc()
			return
		}
	}
}

// retire files a job that ran and has ended among the newest finished
// jobs, the only ones that keep their tails, and releases the tails of
// the oldest once there are more than keptTails.
func (e *Engine) retire(j *Job) {
	e.mu.Lock()
	e.tailed = append(e.tailed, j)
	var old *Job
	if len(e.tailed) > keptTails {
		old = e.tailed[0]
		e.tailed = append(e.tailed[:0], e.tailed[1:]...)
	}
	e.mu.Unlock()
	if old != nil {
		old.events.Journal().KeepTail(0)
		old.spans.Journal().KeepTail(0)
	}
}

// settle classifies a completed (error-free) campaign run: fully done,
// drained part-way, or out of wall budget.
func (e *Engine) settle(j *Job, c *corpus.Campaign) {
	if c.Skipped == 0 {
		j.complete(e, c)
		e.reg.Counter(CounterDone).Inc()
		return
	}
	if e.stopping() || j.stopRequested() {
		j.setSkipped(c.Skipped)
		j.finish(StateCancelled, fmt.Sprintf("drained with %d seeds unrun (resumable from checkpoint)", c.Skipped))
		e.reg.Counter(CounterCancelled).Inc()
		return
	}
	// Not stopped by anyone: the skip came from the wall deadline.
	j.setSkipped(c.Skipped)
	j.finish(StateFailed, fmt.Sprintf("wall deadline exceeded with %d seeds unrun (resumable from checkpoint)", c.Skipped))
	e.reg.Counter(CounterFailed).Inc()
}

// Job is one admitted campaign. Fields under mu change as the job moves
// through its lifecycle; the identity fields (ID, Spec) are immutable
// after Submit. Once a job that ran ends, release leaves only what its
// endpoints serve.
type Job struct {
	ID   string
	Spec Spec

	events *metrics.EventLog // shared across attempts: one resumable seq stream
	spans  *span.Recorder    // shared across attempts: one resumable timeline

	mu        sync.Mutex
	state     State
	attempt   int
	stopReq   bool
	deadline  time.Time
	cp        *harness.Checkpoint // shared across attempts: the retry source
	reg       *metrics.Registry   // fresh per attempt (restored counts stay truthful)
	progress  *harness.Progress
	final     *harness.View // the /progress view rendered as the job ended
	findings  []any         // every finding, kept once the job has ended
	skipped   int
	lastErr   string
	report    string
	remarkSum *corpus.RemarkSummary
	snapshot  *history.Snapshot
	snapPath  string
	faults    *harness.Faults
	checkpath string
}

func newJob(id string, spec Spec, l *Limits) *Job {
	j := &Job{ID: id, Spec: spec, state: StateQueued}
	j.events = metrics.NewEventLog(io.Discard)
	j.events.Journal().KeepTail(journal.TailSize)
	// The timeline recorder is wall-mode (real timings are the point of
	// /jobs/{id}/timeline) and write-discarded: only the tail ring matters.
	// The job's campaign registry stays deterministic regardless — the
	// scheduler probe keeps wall-clock occupancy out of deterministic
	// registries on its own.
	j.spans = span.New(io.Discard)
	j.spans.Journal().KeepTail(journal.TailSize)
	j.checkpath = spec.Checkpoint
	if j.checkpath == "" && l.WorkDir != "" {
		j.checkpath = filepath.Join(l.WorkDir, id+".checkpoint.json")
	}
	if spec.Inject != "" {
		j.faults, _ = harness.ParseFaults(spec.Inject) // validated at Submit
	}
	return j
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Events is the job's event log (its tail backs /jobs/{id}/events).
func (j *Job) Events() *metrics.EventLog { return j.events }

// Spans is the job's span timeline (its tail backs /jobs/{id}/timeline).
func (j *Job) Spans() *span.Recorder { return j.spans }

// Registry is the current attempt's campaign registry (nil before the
// first attempt and once the job has ended). Deterministic, so the job's
// history snapshot is byte-stable.
func (j *Job) Registry() *metrics.Registry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reg
}

// View is the job's /progress body: the live view while it runs, and once
// it has ended the view rendered as it ended, so its elapsed time and
// rates stop moving.
func (j *Job) View() harness.View {
	j.mu.Lock()
	final, p, reg := j.final, j.progress, j.reg
	j.mu.Unlock()
	if final != nil {
		return *final
	}
	return p.View(reg.Snapshot())
}

// Findings returns the findings discovered so far: all of them once the
// job has ended.
func (j *Job) Findings() []any {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return j.findings
	}
	return j.progress.Findings()
}

// Report returns the final campaign report; ok is false until StateDone.
func (j *Job) Report() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.state == StateDone
}

// Snapshot returns the finished job's history snapshot (nil until
// StateDone).
func (j *Job) Snapshot() *history.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshot
}

// Status is the JSON view of a job (GET /jobs/{id}).
type Status struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Attempt int    `json:"attempt"`

	SeedsTotal int `json:"seeds_total"`
	SeedsDone  int `json:"seeds_done"`
	Findings   int `json:"findings"`
	// Skipped counts seeds a drain or deadline left unrun (resumable).
	Skipped int `json:"skipped,omitempty"`

	Error string `json:"error,omitempty"`
	// Checkpoint is the job's checkpoint file (empty: in-memory only).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Snapshot is the history snapshot path of a done job.
	Snapshot string `json:"snapshot,omitempty"`

	Spec Spec `json:"spec"`
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	done, findings := j.progress.Done(), j.progress.FindingCount()
	if j.final != nil {
		done, findings = j.final.SeedsDone, j.final.Findings
	}
	s := Status{
		ID:         j.ID,
		State:      j.state,
		Attempt:    j.attempt,
		SeedsTotal: j.Spec.Programs,
		SeedsDone:  done,
		Findings:   findings,
		Skipped:    j.skipped,
		Error:      j.lastErr,
		Checkpoint: j.checkpath,
		Snapshot:   j.snapPath,
		Spec:       j.Spec,
	}
	return s
}

// startClock arms the job's wall-clock budget at first-run time (retries
// share it: the deadline is a job budget, not a per-attempt one).
func (j *Job) startClock() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.Spec.DeadlineMs > 0 {
		j.deadline = time.Now().Add(time.Duration(j.Spec.DeadlineMs) * time.Millisecond)
	}
}

// run executes one campaign attempt.
func (j *Job) run(e *Engine, attempt int) (*corpus.Campaign, error) {
	j.mu.Lock()
	j.attempt = attempt
	j.state = StateRunning
	// Fresh registry and progress per attempt: a retry restores completed
	// seeds from the checkpoint, and mixing those restored counts into a
	// previous attempt's analyzed counts would over-report seeds done.
	j.reg = metrics.NewDeterministic()
	j.progress = harness.NewProgress(j.Spec.Programs, j.Spec.Workers, j.reg)
	if j.cp == nil {
		var err error
		if j.checkpath != "" {
			j.cp, err = harness.LoadCheckpoint(j.checkpath)
		} else {
			j.cp = harness.NewCheckpoint("")
		}
		if err != nil {
			j.mu.Unlock()
			return nil, err
		}
	}
	deadline := j.deadline
	reg, progress, cp := j.reg, j.progress, j.cp
	j.mu.Unlock()

	ps, _ := j.Spec.personalities()
	ls, _ := j.Spec.levels()
	opts := corpus.Options{
		Programs:        j.Spec.Programs,
		BaseSeed:        j.Spec.BaseSeed,
		Workers:         j.Spec.Workers,
		Personalities:   ps,
		Levels:          ls,
		Trace:           j.Spec.Trace,
		Remarks:         j.Spec.Remarks,
		VerifySemantics: j.Spec.VerifySemantics,
		StepBudget:      j.Spec.StepBudget,
		Faults:          j.faults,
		Checkpoint:      cp,
		Metrics:         reg,
		Events:          j.events,
		Spans:           j.spans,
		Progress:        progress,
		Deadline:        deadline,
		Stop: func() bool {
			if e.stopping() || j.stopRequested() {
				j.markCheckpointing()
				return true
			}
			return !deadline.IsZero() && time.Now().After(deadline)
		},
	}
	if ch := j.Spec.Chaos; ch != nil && attempt <= ch.Times {
		opts.SeedHook = func(idx int, seed int64) {
			if seed == ch.CrashAtSeed {
				panic(fmt.Sprintf("chaos: injected job crash at seed %d (attempt %d)", seed, attempt))
			}
		}
	}
	// The attempt envelope goes on the timeline even when the campaign
	// inside it panics — that is exactly when an operator reads it.
	astart := time.Now()
	defer func() {
		j.spans.Emit(span.Span{
			Name: "attempt", Cat: span.CatJob, TID: 0,
			Start: astart, Dur: time.Since(astart),
			Args: []span.Arg{span.Str("job", j.ID), span.Int("attempt", attempt)},
		})
	}()
	return corpus.Run(opts)
}

// complete finalizes a fully-run job: report, history snapshot, done.
func (j *Job) complete(e *Engine, c *corpus.Campaign) {
	text := report.Summary(c)
	snap := history.NewSnapshot(e.Tool, c, j.Registry())
	var path string
	if e.limits.HistoryDir != "" {
		p, err := snap.Write(e.limits.HistoryDir)
		if err != nil {
			j.finish(StateFailed, fmt.Sprintf("writing history snapshot: %v", err))
			e.reg.Counter(CounterFailed).Inc()
			return
		}
		path = p
	}
	j.mu.Lock()
	j.state = StateDone
	j.lastErr = ""
	j.report = text
	j.remarkSum = c.Stats.Remarks
	j.snapshot = snap
	j.snapPath = path
	j.release()
	j.mu.Unlock()
}

// RemarkSummary returns the finished job's campaign-wide remark summary;
// ok is false until StateDone. A done job that ran without Spec.Remarks
// returns (nil, true).
func (j *Job) RemarkSummary() (*corpus.RemarkSummary, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.remarkSum, j.state == StateDone
}

// finish ends a job that ran.
func (j *Job) finish(s State, msg string) {
	j.mu.Lock()
	j.state = s
	j.lastErr = msg
	j.release()
	j.mu.Unlock()
}

// release renders the ended job's /progress view and keeps its findings,
// then drops the rest of its last attempt: the checkpoint (a WorkDir file
// stays on disk), the registry and the live progress. It runs under j.mu
// with the change to the terminal state, so no reader sees an ended job's
// view move.
func (j *Job) release() {
	v := j.progress.View(j.reg.Snapshot())
	j.final, j.findings = &v, j.progress.Findings()
	j.cp, j.reg, j.progress = nil, nil, nil
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *Job) recordError(attempt int, err error) {
	j.mu.Lock()
	j.lastErr = fmt.Sprintf("attempt %d: %v", attempt, err)
	j.mu.Unlock()
}

func (j *Job) setSkipped(n int) {
	j.mu.Lock()
	j.skipped = n
	j.mu.Unlock()
}

// cancelQueued cancels the job iff it never started running.
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.attempt > 0 {
		return false
	}
	j.state = StateCancelled
	j.lastErr = "cancelled before running"
	return true
}

// requestStop asks a running job to stop at the next seed boundary.
func (j *Job) requestStop() {
	j.mu.Lock()
	j.stopReq = true
	j.mu.Unlock()
}

func (j *Job) stopRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopReq
}

// markCheckpointing flips running → checkpointing once a stop request is
// being honoured (in-flight seeds are finishing and checkpointing).
func (j *Job) markCheckpointing() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.state = StateCheckpointing
	}
	j.mu.Unlock()
}

// personalities resolves the spec's compiler names ("gcc"/"llvm", or the
// full "gcc-sim"/"llvm-sim"); empty means the corpus default (both).
func (s *Spec) personalities() ([]pipeline.Personality, error) {
	var out []pipeline.Personality
	for _, name := range s.Personalities {
		switch name {
		case "gcc", string(pipeline.GCC):
			out = append(out, pipeline.GCC)
		case "llvm", string(pipeline.LLVM):
			out = append(out, pipeline.LLVM)
		default:
			return nil, fmt.Errorf("personalities: unknown compiler %q (want gcc or llvm)", name)
		}
	}
	return out, nil
}

// levels resolves the spec's level names; empty means all five.
func (s *Spec) levels() ([]pipeline.Level, error) {
	var out []pipeline.Level
	for _, name := range s.Levels {
		var lvl pipeline.Level
		switch name {
		case "O0":
			lvl = pipeline.O0
		case "O1":
			lvl = pipeline.O1
		case "Os":
			lvl = pipeline.Os
		case "O2":
			lvl = pipeline.O2
		case "O3":
			lvl = pipeline.O3
		default:
			return nil, fmt.Errorf("levels: unknown level %q (want O0, O1, Os, O2, or O3)", name)
		}
		out = append(out, lvl)
	}
	return out, nil
}
