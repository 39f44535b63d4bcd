// Package harness is the fault-tolerant execution layer of campaign runs.
//
// The paper's real campaigns push millions of generated programs through
// compilers that crash, hang, and miscompile; the infrastructure around
// them survives every failure, triages it like a fuzzer, and keeps going.
// This package provides that layer for the simulated compilers: every
// per-(seed, config) unit of work runs under Protect, which
//
//   - converts panics into structured Failure records with a stack-derived
//     bucket signature (fuzzer-style crash dedup) and a persisted
//     reproducer (MiniC source + seed + config, ready for dce-reduce),
//   - bounds non-terminating pass fixpoints with a step-budget watchdog
//     (the pipeline analogue of interpreter fuel) and classifies budget
//     exhaustion as a timeout, separately from crashes,
//   - classifies returned errors into the failure taxonomy
//     (crash / timeout / miscompile / infeasible) via error sentinels.
//
// A deterministic fault-injection hook (Faults, faults.go) makes chosen
// pass instances panic, spin past the deadline, or corrupt the IR on
// chosen seeds, so campaign-level fault tolerance is itself testable.
// Checkpoint (checkpoint.go) persists per-seed outcomes so interrupted
// campaigns resume without recomputing completed seeds.
package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"dcelens/internal/ir"
	"dcelens/internal/metrics"
	"dcelens/internal/opt"
)

// Kind classifies a unit failure (the failure taxonomy of DESIGN.md).
type Kind int

const (
	// KindCrash: the unit panicked or reported an internal error (e.g. the
	// IR verifier rejected a pass's output) — an internal compiler error.
	KindCrash Kind = iota
	// KindTimeout: the pipeline exceeded its step budget — a
	// non-terminating (or pathologically slow) pass fixpoint.
	KindTimeout
	// KindMiscompile: the compiled module's observable behaviour diverged
	// from ground truth.
	KindMiscompile
	// KindInfeasible: the program itself could not be analyzed
	// (instrumentation or ground-truth execution failed) — a program-level
	// failure, not a compiler one.
	KindInfeasible
)

var kindNames = map[Kind]string{
	KindCrash:      "crash",
	KindTimeout:    "timeout",
	KindMiscompile: "miscompile",
	KindInfeasible: "infeasible",
}

func (k Kind) String() string { return kindNames[k] }

// Error sentinels callers wrap to steer classification of returned errors.
// Anything not matching a sentinel classifies as KindCrash (an internal
// compiler error: the pipeline reported a problem with its own output).
var (
	ErrMiscompile = errors.New("miscompile")
	ErrInfeasible = errors.New("infeasible")
)

// Failure is one isolated unit failure: what failed, how it is bucketed,
// and everything needed to reproduce it.
type Failure struct {
	Kind   Kind   `json:"kind"`
	Seed   int64  `json:"seed"`
	Config string `json:"config,omitempty"` // empty for program-level failures

	// Message is the panic value or error text.
	Message string `json:"message"`
	// Signature is the dedup bucket key: the top in-repo stack frames for
	// panics, the stalled pass for timeouts, the digit-normalized message
	// for errors. Failures with equal signatures are "the same bug".
	Signature string `json:"signature"`
	// Stack is the captured goroutine stack of a panic (crashes only).
	Stack string `json:"stack,omitempty"`
	// Source is the instrumented MiniC reproducer; together with Seed and
	// Config it is a ready-made dce-reduce input.
	Source string `json:"source,omitempty"`
}

func (f *Failure) String() string {
	if f.Config == "" {
		return fmt.Sprintf("seed %d: %s: %s", f.Seed, f.Kind, f.Message)
	}
	return fmt.Sprintf("seed %d %s: %s: %s", f.Seed, f.Config, f.Kind, f.Message)
}

// DefaultStepBudget bounds observed pass instances per compilation. Real
// schedules execute well under a hundred instances; the two orders of
// magnitude of headroom mean only a genuinely runaway fixpoint (or an
// injected stall) can exhaust it.
const DefaultStepBudget = 4096

// Harness executes guarded units of work for one campaign.
type Harness struct {
	// StepBudget is the per-compilation pass-instance budget; <= 0 means
	// DefaultStepBudget.
	StepBudget int
	// Faults is the deterministic fault-injection plan; nil injects none.
	Faults *Faults
	// Metrics receives per-unit telemetry: every Protect call observes its
	// wall time into the "harness.unit" histogram, and classified failures
	// increment "harness.failures.<kind>". Nil disables the collection (and
	// its per-unit time.Now calls) entirely.
	Metrics *metrics.Registry
	// WallDeadline is the campaign's wall-clock budget (per-job resource
	// budgets in service mode): the watchdog checks it at every observed
	// pass instance, and a unit still running past it fails as a timeout
	// with the "deadline:wall" bucket. The zero time disables the check
	// (and its per-pass time.Now call).
	WallDeadline time.Time
}

func (h *Harness) budget() int {
	if h == nil || h.StepBudget <= 0 {
		return DefaultStepBudget
	}
	return h.StepBudget
}

// Armed reports whether a fault is armed for the (seed, config) unit. A
// campaign compiles such a unit alone, so that the fault fires in the
// unit's own compile and never in work it shares with other
// configurations.
func (h *Harness) Armed(seed int64, config string) bool {
	return h != nil && len(h.Faults.active(seed, config)) > 0
}

// deadlinePanic is the watchdog's control-flow sentinel; Protect converts
// it into a KindTimeout failure.
type deadlinePanic struct {
	pass  string
	steps int
	wall  bool // the wall-clock deadline fired, not the step budget
}

// guard is the observer Protect attaches to the pipeline: it counts pass
// instances against the step budget, checks the wall-clock deadline, and
// triggers injected faults.
type guard struct {
	seed      int64
	budget    int
	deadline  time.Time
	steps     int
	last      string
	faults    []Fault
	corrupted bool
}

func (g *guard) BeginPipeline(m *ir.Module) {}

func (g *guard) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st opt.PassStats) {
	g.last = pass
	g.tick()
	for i := range g.faults {
		f := &g.faults[i]
		if f.Pass != "*" && f.Pass != pass {
			continue
		}
		switch f.Kind {
		case FaultPanic:
			panic(fmt.Sprintf("injected fault: pass %s panicked (seed %d)", pass, g.seed))
		case FaultStall:
			// A non-terminating fixpoint: burn watchdog steps until the
			// deadline fires. The loop is bounded by the budget, so the
			// "hang" is deterministic and instant.
			for {
				g.tick()
			}
		case FaultCorrupt:
			if !g.corrupted {
				g.corrupted = true
				corruptModule(m)
			}
		}
	}
}

// tick charges one step and panics the deadline sentinel past the budget
// or the wall-clock deadline.
func (g *guard) tick() {
	g.steps++
	if g.budget > 0 && g.steps > g.budget {
		panic(deadlinePanic{pass: g.last, steps: g.steps})
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		panic(deadlinePanic{pass: g.last, steps: g.steps, wall: true})
	}
}

// Protect runs one guarded unit of work. fn receives the watchdog/fault
// observer to attach to the pipeline it drives (as core.Hooks.Observer).
// A nil return means the unit completed; otherwise the returned Failure
// records the classified, bucketed, reproducible fault. Protect never lets
// a panic escape.
func (h *Harness) Protect(seed int64, config, source string, fn func(obs opt.Observer) error) (fail *Failure) {
	g := &guard{seed: seed, budget: h.budget()}
	if h != nil {
		g.deadline = h.WallDeadline
		if h.Faults != nil {
			g.faults = h.Faults.active(seed, config)
		}
	}
	if h != nil && h.Metrics != nil {
		// Registered before the recovery defer so it runs after it (LIFO)
		// and sees the classified failure.
		start := time.Now()
		defer func() {
			h.Metrics.Histogram("harness.unit").Observe(time.Since(start))
			if fail != nil {
				h.Metrics.Counter("harness.failures." + fail.Kind.String()).Inc()
			}
		}()
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if dp, ok := r.(deadlinePanic); ok {
			fail = &Failure{
				Kind:      KindTimeout,
				Seed:      seed,
				Config:    config,
				Message:   fmt.Sprintf("pipeline exceeded step budget %d (last pass %s)", g.budget, dp.pass),
				Signature: "deadline:" + dp.pass,
				Source:    source,
			}
			if dp.wall {
				// Wall-budget exhaustion buckets together regardless of
				// which pass the clock happened to expire under: the bug is
				// the budget, not the pass.
				fail.Message = fmt.Sprintf("pipeline exceeded wall deadline (last pass %s)", dp.pass)
				fail.Signature = "deadline:wall"
			}
			return
		}
		stack := debug.Stack()
		fail = &Failure{
			Kind:      KindCrash,
			Seed:      seed,
			Config:    config,
			Message:   fmt.Sprint(r),
			Signature: panicSignature(stack),
			Stack:     string(stack),
			Source:    source,
		}
	}()
	if err := fn(g); err != nil {
		return h.classify(seed, config, source, err)
	}
	return nil
}

// classify converts a returned error into a Failure using the sentinel
// taxonomy.
func (h *Harness) classify(seed int64, config, source string, err error) *Failure {
	f := &Failure{
		Kind:    KindCrash,
		Seed:    seed,
		Config:  config,
		Message: err.Error(),
		Source:  source,
	}
	switch {
	case errors.Is(err, ErrMiscompile):
		f.Kind = KindMiscompile
	case errors.Is(err, ErrInfeasible):
		f.Kind = KindInfeasible
	}
	f.Signature = f.Kind.String() + ":" + normalizeMessage(err.Error())
	return f
}

// panicSignature derives the crash bucket from a goroutine stack: the top
// in-repo frames outside the plumbing, digits dropped, joined innermost
// first. Two panics from the same code path bucket together even when
// value IDs or seeds differ in the message.
func panicSignature(stack []byte) string {
	var frames []string
	for _, line := range strings.Split(string(stack), "\n") {
		line = strings.TrimSpace(line)
		// Frame-name lines look like "dcelens/internal/opt.run(...)"; the
		// file:line lines that follow are indented with a tab originally
		// and carry a path separator before a colon — skip non-call lines.
		if !strings.HasPrefix(line, "dcelens/") || !strings.Contains(line, "(") {
			continue
		}
		name := line[:strings.Index(line, "(")]
		name = strings.TrimPrefix(name, "dcelens/")
		// The guard and Protect machinery are never the bug, and neither is
		// the observer fan-out internal/core puts between the pipeline and
		// the guard when more than the guard is attached: skipping it keeps
		// a crash's bucket independent of the campaign's observability sinks.
		if strings.HasPrefix(name, "internal/harness.") || strings.HasPrefix(name, "internal/core.fanout.") {
			continue
		}
		frames = append(frames, name)
		if len(frames) == 3 {
			break
		}
	}
	if len(frames) == 0 {
		return "panic:unknown"
	}
	return strings.Join(frames, "<-")
}

// normalizeMessage strips run-specific detail (digit runs) so that the
// same error at different seeds or value IDs buckets identically, and
// truncates to keep signatures table-friendly.
func normalizeMessage(msg string) string {
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	var b strings.Builder
	lastHash := false
	for _, r := range msg {
		if r >= '0' && r <= '9' {
			if !lastHash {
				b.WriteByte('#')
				lastHash = true
			}
			continue
		}
		lastHash = false
		b.WriteRune(r)
	}
	out := b.String()
	if len(out) > 120 {
		out = out[:120]
	}
	return out
}
