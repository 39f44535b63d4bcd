// Package trace instruments the optimization pipeline itself: a Recorder
// observes every executed pass instance and derives, per compilation, a
// per-pass profile (wall time, IR-size deltas) and a marker provenance —
// the exact (pass, schedule position, iteration) that eliminated each
// optimization marker.
//
// The paper root-causes missed optimizations by bisecting compiler git
// history (§4.2, Tables 3/4), which is expensive and only applies to
// regressions. Provenance is the cheap dual: instead of asking "which
// commit broke the elimination in P?", it asks "which pass performs the
// elimination in Q?" for any configuration Q that succeeds — instant
// root-cause signal for every finding, and a cross-check for the
// bisection-based component categorization (attrib.go).
//
// The Recorder satisfies opt.Observer, so tracing is strictly opt-in: a nil
// observer costs the pipeline one pointer comparison per pass. Pass
// instances the dirty tracker skipped entirely are recorded without
// rescanning the module — the IR is provably identical to the previous
// observation.
package trace

import (
	"fmt"
	"sort"
	"time"

	"dcelens/internal/ir"
	"dcelens/internal/opt"
)

// PassRef identifies one executed pass instance within a compilation:
// which pass, at which position of the schedule, in which iteration of the
// pass manager's fixpoint loop.
type PassRef struct {
	Pass          string
	ScheduleIndex int // position in the schedule; -1 for the frontend
	Iteration     int // pipeline iteration; -1 for the frontend
}

// Frontend is the pseudo pass instance that owns markers already gone when
// the middle-end pipeline starts: the lowerer's trivial constant folding
// plus the code layout's unreachable-block elision (the same effects that
// make -O0 eliminate some markers in the paper's Table 1).
var Frontend = PassRef{Pass: "frontend", ScheduleIndex: -1, Iteration: -1}

// IsFrontend reports whether the instance is the frontend pseudo pass.
func (r PassRef) IsFrontend() bool { return r.ScheduleIndex < 0 }

func (r PassRef) String() string {
	if r.IsFrontend() {
		return r.Pass
	}
	return fmt.Sprintf("%s#%d.%d", r.Pass, r.Iteration, r.ScheduleIndex)
}

// PassProfile records one executed pass instance.
type PassProfile struct {
	Ref      PassRef
	Changed  bool
	Duration time.Duration

	// IR size after the pass ran (defined functions, their blocks, their
	// instructions), plus the delta against the previous observation.
	Funcs, Blocks, Instrs    int
	DFuncs, DBlocks, DInstrs int

	// Eliminated lists the markers whose last surviving call disappeared
	// while this pass ran (sorted). "Surviving" means reachable from some
	// defined function's entry — the same criterion the assembly scan
	// applies, so a pass that merely disconnects a block gets the credit,
	// not the later cleanup that deletes it.
	Eliminated []string
}

// Provenance maps every eliminated marker to its killer pass instance.
type Provenance struct {
	// Markers lists the eliminated markers in sorted order; all iteration
	// over the attribution is slice-ordered so that renderings of the same
	// compilation are byte-identical across runs.
	Markers []string
	Killer  map[string]PassRef
}

// KillerOf returns the pass instance that eliminated the marker.
func (p *Provenance) KillerOf(marker string) (PassRef, bool) {
	ref, ok := p.Killer[marker]
	return ref, ok
}

// Profile is the full trace of one compilation.
type Profile struct {
	// Passes holds one entry per executed pass instance, in execution
	// order.
	Passes []PassProfile
	// InitialSurviving lists the markers still present when the pipeline
	// started (sorted); markers from the instrumentation table missing
	// here were eliminated by the frontend.
	InitialSurviving []string
	// FinalSurviving lists the markers still present after the last pass
	// (sorted). It must agree with the assembly scan of the same module.
	FinalSurviving []string

	prov *Provenance
}

// Provenance returns the marker→killer attribution of the compilation.
func (p *Profile) Provenance() *Provenance { return p.prov }

// SurvivingMarkers scans the module for marker calls reachable from the
// entry of a defined function — exactly what survives into the emitted
// assembly (the backend lays out reachable blocks only). The scan is the
// cheap per-pass observation everything else is built on.
func SurvivingMarkers(m *ir.Module, isMarker func(string) bool) map[string]bool {
	out := map[string]bool{}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		for _, b := range f.ReversePostorder() {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && isMarker(in.Callee.Name) {
					out[in.Callee.Name] = true
				}
			}
		}
	}
	return out
}

// Scan is one observation of a module: the markers surviving in it and
// its size. A recorder takes one at the start of the pipeline and one after
// each instance that Rescans; a compile trie takes the same scans of the
// module its configurations share and hands them to each configuration's
// recorder (Recorder.Replay). A Scan is read-only once taken.
type Scan struct {
	surviving             map[string]bool
	sorted                []string
	funcs, blocks, instrs int
}

// ScanModule observes m; isMarker classifies call targets.
func ScanModule(m *ir.Module, isMarker func(string) bool) *Scan {
	s := &Scan{surviving: SurvivingMarkers(m, isMarker)}
	s.sorted = sortedKeys(s.surviving)
	s.funcs, s.blocks, s.instrs = moduleSize(m)
	return s
}

// Rescans reports whether a recorder scans the module after an instance
// with these stats. One the dirty tracker skipped entirely left the module
// as the previous observation saw it.
func Rescans(st opt.PassStats) bool { return st.Changed || st.FuncsVisited > 0 }

// Recorder accumulates a Profile while observing a pipeline run. It
// implements opt.Observer. A Recorder traces exactly one compilation.
type Recorder struct {
	isMarker func(string) bool
	// markers is the instrumentation table (sorted copy); markers absent
	// at pipeline entry are attributed to the frontend.
	markers []string

	last *Scan
	// replay queues scans taken elsewhere of the module as this recorder's
	// next observations would see it (Replay).
	replay []*Scan

	profile Profile
	began   bool
}

// NewRecorder builds a recorder for a program whose instrumentation table
// lists the given marker names; isMarker classifies call targets during
// module scans (pass instrument.IsMarker).
func NewRecorder(markers []string, isMarker func(string) bool) *Recorder {
	sorted := append([]string(nil), markers...)
	sort.Strings(sorted)
	return &Recorder{
		isMarker: isMarker,
		markers:  sorted,
		profile:  Profile{prov: &Provenance{Killer: map[string]PassRef{}}},
	}
}

// Replay queues scans for the recorder's next observations, in order:
// the start of the pipeline, then each instance that Rescans. A compile
// that resumes after work its configurations shared replays that work's
// scans instead of rescanning a module that has moved on.
func (r *Recorder) Replay(scans []*Scan) { r.replay = scans }

// observe returns the next queued scan, or a scan of m. The queue is
// dropped once empty, so a finished profile keeps no replayed scan but
// its last one alive.
func (r *Recorder) observe(m *ir.Module) *Scan {
	if len(r.replay) > 0 {
		s := r.replay[0]
		if r.replay = r.replay[1:]; len(r.replay) == 0 {
			r.replay = nil
		}
		return s
	}
	return ScanModule(m, r.isMarker)
}

// BeginPipeline observes the module as the pipeline starts: the baseline
// surviving-marker set and IR size. Markers from the table already gone
// are attributed to the frontend.
func (r *Recorder) BeginPipeline(m *ir.Module) {
	r.last = r.observe(m)
	r.profile.InitialSurviving = r.last.sorted
	for _, name := range r.markers {
		if !r.last.surviving[name] {
			r.attribute(name, Frontend)
		}
	}
	r.began = true
}

// AfterPass observes the module after one pass instance ran, recording its
// profile entry and attributing any markers that disappeared.
func (r *Recorder) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st opt.PassStats) {
	if !r.began {
		// Defensive: a pipeline that skips BeginPipeline still traces,
		// with an empty baseline.
		r.BeginPipeline(m)
	}
	ref := PassRef{Pass: pass, ScheduleIndex: scheduleIndex, Iteration: iteration}
	prev := r.last
	if !Rescans(st) {
		// The dirty tracker skipped every function (or the whole module
		// pass): nothing ran, so the module is bit-identical to the
		// previous observation. Reuse it instead of rescanning — the
		// profile entry this writes is exactly what a full scan would
		// produce (no eliminations, zero deltas).
		r.profile.Passes = append(r.profile.Passes, PassProfile{
			Ref:      ref,
			Changed:  false,
			Duration: st.Duration,
			Funcs:    prev.funcs,
			Blocks:   prev.blocks,
			Instrs:   prev.instrs,
		})
		return
	}
	now := r.observe(m)
	var eliminated []string
	for _, name := range prev.sorted {
		if !now.surviving[name] {
			eliminated = append(eliminated, name)
			r.attribute(name, ref)
		}
	}
	// A marker cannot reappear (passes only duplicate existing calls), but
	// guard the attribution against it anyway: presence always wins.
	for name := range now.surviving {
		if !prev.surviving[name] {
			r.unattribute(name)
		}
	}
	r.profile.Passes = append(r.profile.Passes, PassProfile{
		Ref:        ref,
		Changed:    st.Changed,
		Duration:   st.Duration,
		Funcs:      now.funcs,
		Blocks:     now.blocks,
		Instrs:     now.instrs,
		DFuncs:     now.funcs - prev.funcs,
		DBlocks:    now.blocks - prev.blocks,
		DInstrs:    now.instrs - prev.instrs,
		Eliminated: eliminated,
	})
	r.last = now
}

// Profile finalizes and returns the accumulated trace.
func (r *Recorder) Profile() *Profile {
	if r.last != nil {
		r.profile.FinalSurviving = r.last.sorted
	}
	sort.Strings(r.profile.prov.Markers)
	return &r.profile
}

func (r *Recorder) attribute(marker string, ref PassRef) {
	if _, dup := r.profile.prov.Killer[marker]; !dup {
		r.profile.prov.Markers = append(r.profile.prov.Markers, marker)
	}
	r.profile.prov.Killer[marker] = ref
}

func (r *Recorder) unattribute(marker string) {
	if _, ok := r.profile.prov.Killer[marker]; !ok {
		return
	}
	delete(r.profile.prov.Killer, marker)
	for i, m := range r.profile.prov.Markers {
		if m == marker {
			r.profile.prov.Markers = append(r.profile.prov.Markers[:i], r.profile.prov.Markers[i+1:]...)
			break
		}
	}
}

func moduleSize(m *ir.Module) (funcs, blocks, instrs int) {
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		funcs++
		blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
		}
	}
	return funcs, blocks, instrs
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
