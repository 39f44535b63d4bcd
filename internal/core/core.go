// Package core implements the paper's contribution: finding missed
// optimizations through the lens of dead code elimination.
//
// The pipeline (paper Figure 1):
//
//	① instrument basic blocks with markers        (internal/instrument)
//	② compile with multiple compilers/levels      (this package, via internal/pipeline)
//	③ compare surviving markers in the assembly   (this package, via internal/asm)
//	④ filter to primary missed markers            (markercfg.go)
//
// Ground truth (which markers are actually dead) comes from executing the
// deterministic, input-free program (internal/interp), exactly as in §4.1.
package core

import (
	"fmt"
	"sort"

	"dcelens/internal/instrument"
	"dcelens/internal/interp"
	"dcelens/internal/ir"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/trace"
)

// Truth is the executed ground truth of an instrumented program.
type Truth struct {
	Alive    map[string]bool // markers that executed
	Dead     []string        // markers that never executed (sorted)
	Checksum uint64
	ExitCode int64
}

// GroundTruth executes the instrumented program and classifies every
// marker. Dead code observed during the single execution is dead for all
// executions, because MiniC programs are closed and deterministic.
func GroundTruth(ins *instrument.Program) (*Truth, error) {
	res, err := interp.Run(ins.Prog, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: ground truth execution: %w", err)
	}
	t := &Truth{
		Alive:    map[string]bool{},
		Checksum: res.Checksum,
		ExitCode: res.ExitCode,
	}
	for _, m := range ins.Markers {
		if res.Executed(m.Name) {
			t.Alive[m.Name] = true
		} else {
			t.Dead = append(t.Dead, m.Name)
		}
	}
	sort.Strings(t.Dead)
	return t, nil
}

// Compilation is the result of compiling one instrumented program with one
// compiler configuration.
type Compilation struct {
	Config *pipeline.Config
	Module *ir.Module
	Asm    string
	// Alive holds the markers surviving in the assembly (the compiler
	// could not prove their blocks dead).
	Alive map[string]bool
}

// Compile lowers, optimizes, and code-generates the instrumented program
// under cfg, then scans the assembly for surviving markers. h attaches the
// compile's optional consumers; the zero Hooks attaches none.
//
// With a trace attached, the trace's view of the surviving markers is
// cross-checked against the assembly scan, so a provenance entry can be
// trusted to describe what the oracle observes.
func Compile(ins *instrument.Program, cfg *pipeline.Config, h Hooks) (*Compilation, error) {
	t := newTrie(ins, lowerTimed(ins), []*pipeline.Config{cfg}, h.Trace != nil, h.Remarks != nil)
	return t.Paused[0].Compile(h)
}

// VerifyAgainstTruth executes the compiled module and checks that the
// optimizer preserved the program's observable behaviour — the standing
// assumption of the paper (a compiler that miscompiles would invalidate
// the oracle, and a marker surviving in the binary of a miscompiled
// program is a correctness bug, not a missed optimization).
func (c *Compilation) VerifyAgainstTruth(t *Truth) error {
	res, err := ir.Execute(c.Module, ir.ExecOptions{})
	if err != nil {
		return fmt.Errorf("core: %s: compiled module crashed: %w", c.Config.Name(), err)
	}
	if res.Checksum != t.Checksum || res.ExitCode != t.ExitCode {
		return fmt.Errorf("core: %s: MISCOMPILE: checksum %x/%x exit %d/%d",
			c.Config.Name(), res.Checksum, t.Checksum, res.ExitCode, t.ExitCode)
	}
	return nil
}

// Missed returns the markers that are dead in truth but survive in the
// compilation: the compiler failed to eliminate provably-dead code.
func (c *Compilation) Missed(t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if c.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// Eliminated returns the dead markers the compilation removed.
func (c *Compilation) Eliminated(t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if !c.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// SoundnessError reports markers the compiler eliminated although they are
// alive — that would be a miscompilation (the paper assumes compilers never
// misidentify live blocks as dead; we check it).
func (c *Compilation) SoundnessError(t *Truth) []string {
	var out []string
	for m := range t.Alive {
		if !c.Alive[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// DiffMissed implements the paper's differential oracle (§3.1): the
// markers target failed to eliminate although reference eliminated them —
// feasible missed optimizations of target. The truth restricts the
// comparison to actually-dead markers.
func DiffMissed(target, reference *Compilation, t *Truth) []string {
	var out []string
	for _, m := range t.Dead {
		if target.Alive[m] && !reference.Alive[m] {
			out = append(out, m)
		}
	}
	return out
}

// Analysis bundles everything the engine derives for one (program,
// compiler) pair.
type Analysis struct {
	Compilation   *Compilation
	Missed        []string
	PrimaryMissed []string

	// Trace is the per-pass profile and marker provenance of the
	// compilation; nil unless Hooks.Trace was attached (corpus
	// Options.Trace).
	Trace *trace.Profile

	// Remarks is the compilation's optimization-remark profile: per-pass
	// applied/missed counts, miss-reason histogram, and each surviving
	// marker's nearest-miss chain. Nil unless Hooks.Remarks was attached
	// (corpus Options.Remarks).
	Remarks *remark.Profile
}

// Analyze compiles ins under cfg (see Compile) and computes missed and
// primary-missed markers relative to the ground truth and the marker CFG.
// The analysis carries the profiles of the trace and remark collector h
// attaches.
func Analyze(ins *instrument.Program, cfg *pipeline.Config, t *Truth, g *MarkerCFG, h Hooks) (*Analysis, error) {
	comp, err := Compile(ins, cfg, h)
	if err != nil {
		return nil, err
	}
	return analyze(comp, t, g, h), nil
}

// analyze derives a compilation's missed and primary-missed markers and
// takes the profiles of the trace and remark collector h attaches.
func analyze(comp *Compilation, t *Truth, g *MarkerCFG, h Hooks) *Analysis {
	missed := comp.Missed(t)
	an := &Analysis{
		Compilation:   comp,
		Missed:        missed,
		PrimaryMissed: g.Primary(t, missed),
	}
	if h.Trace != nil {
		an.Trace = h.Trace.Profile()
	}
	if h.Remarks != nil {
		an.Remarks = h.Remarks.Profile()
	}
	return an
}
