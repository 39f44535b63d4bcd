package opt

import "dcelens/internal/ir"

// This file is the emission side of the optimization-remarks subsystem:
// every pass reports, through the Options value it already receives, what
// it considered and rejected (with a machine-readable reason) and what
// analysis facts it computed, and counts the transformations it applied.
// The collection side lives in internal/remark; the seam is the
// RemarkSink interface below, detected on the pipeline observer, so that —
// exactly like the Observer seam — opt never imports the consumer. With no
// sink attached every emission helper is one pointer comparison, keeping
// uninstrumented compilations indistinguishable from the pre-remarks
// pipeline.

// RemarkKind classifies a remark.
type RemarkKind uint8

const (
	// RemarkMissed records a transformation that was considered and
	// rejected; Remark.Reason says why.
	RemarkMissed RemarkKind = iota
	// RemarkAnalysis records a computed fact (no transformation). No pass
	// emits one at present.
	RemarkAnalysis
)

// Reason is a machine-readable rejection code attached to Missed remarks.
// The vocabulary is closed: downstream consumers (dce-explain, the
// /metrics counters, the future oracles) aggregate on these strings.
type Reason string

const (
	// ReasonAliasUnknown: a may-alias query could not be refuted.
	ReasonAliasUnknown Reason = "alias-unknown"
	// ReasonEscape: the storage escapes, so external code may touch it.
	ReasonEscape Reason = "escape"
	// ReasonLoopCarried: the value may change across loop iterations.
	ReasonLoopCarried Reason = "loop-carried"
	// ReasonCallClobber: a call with unknown mod/ref killed the facts.
	ReasonCallClobber Reason = "call-clobber"
	// ReasonSizeThreshold: a size or growth budget was exceeded.
	ReasonSizeThreshold Reason = "size-threshold"
	// ReasonRecursive: the callee participates in a call-graph cycle.
	ReasonRecursive Reason = "recursive"
	// ReasonSideEffects: opaque side effects keep the code live.
	ReasonSideEffects Reason = "side-effects"
	// ReasonAddressTaken: the object's address leaks beyond direct
	// loads and stores.
	ReasonAddressTaken Reason = "address-taken"
	// ReasonNotDominated: the candidate is not dominated by its
	// would-be provider.
	ReasonNotDominated Reason = "not-dominated"
	// ReasonTypeMismatch: value types differ, so forwarding is unsound.
	ReasonTypeMismatch Reason = "type-mismatch"
	// ReasonWidenedStore: the type-erased "vectorized" store never
	// forwards (paper Listing 9e).
	ReasonWidenedStore Reason = "widened-store"
	// ReasonBoundsUnknown: the access is not provably in bounds, so
	// speculation is unsafe.
	ReasonBoundsUnknown Reason = "bounds-unknown"
	// ReasonPrecision: the configured analysis tier is too weak, though
	// a stronger one would prove the fact (the paper's central axis).
	ReasonPrecision Reason = "precision"
)

// Remark is one structured optimization decision. The struct is
// comparable; internal/remark deduplicates re-emissions across fixpoint
// iterations by comparing remarks with the position fields zeroed.
// Transformations that fired are not remarks: each pass instance counts
// them, and ObservedPipeline reports the count as PassStats.Applied.
type Remark struct {
	Kind RemarkKind
	Pass string
	// ScheduleIndex and Iteration locate the emitting pass instance,
	// mirroring Observer.AfterPass.
	ScheduleIndex int
	Iteration     int
	// Fn is the enclosing function; empty for module-scoped decisions
	// (interprocedural passes, global analysis verdicts).
	Fn      string
	Subject string
	Reason  Reason // Missed only
	Detail  string
}

// RemarkSink receives remarks during an ObservedPipeline run. An observer
// that also implements RemarkSink (internal/remark.Collector) is detected
// by ObservedPipeline and wired into the Options the passes see; plain
// observers leave remark emission disabled.
type RemarkSink interface {
	Remark(Remark)
}

// remarkCtx threads the sink plus the executing pass instance's position
// and applied count into pass bodies via the Options value (which is
// copied by value, so the shared pointer is what keeps them current).
type remarkCtx struct {
	sink    RemarkSink
	pass    string
	index   int
	iter    int
	applied int
}

// RemarksOn reports whether remark emission is enabled. Passes use it to
// gate scans and subject strings built purely for remarks; the emission
// helpers below already nil-check, so unconditional emissions need no
// guard.
func (o Options) RemarksOn() bool { return o.remarks != nil }

func (o Options) remark(kind RemarkKind, fn, subject string, reason Reason, detail string) {
	c := o.remarks
	if c == nil {
		return
	}
	c.sink.Remark(Remark{
		Kind:          kind,
		Pass:          c.pass,
		ScheduleIndex: c.index,
		Iteration:     c.iter,
		Fn:            fn,
		Subject:       subject,
		Reason:        reason,
		Detail:        detail,
	})
}

// applied counts one transformation that fired in the executing pass
// instance.
func (o Options) applied() {
	if c := o.remarks; c != nil {
		c.applied++
	}
}

// missed records a transformation considered and rejected in f.
func (o Options) missed(f *ir.Func, subject string, reason Reason, detail string) {
	o.remark(RemarkMissed, f.Name, subject, reason, detail)
}

// missedModule is the module-scoped variant (interprocedural passes;
// included in every function's miss chain).
func (o Options) missedModule(subject string, reason Reason, detail string) {
	o.remark(RemarkMissed, "", subject, reason, detail)
}
