package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"dcelens/internal/ast"
	"dcelens/internal/bisect"
	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/interp"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/reduce"
	"dcelens/internal/sema"
)

// InterestingnessFor builds the reduction oracle for a finding: the
// candidate program must still terminate cleanly, the marker must still be
// dead in ground truth, the target configuration must still keep it, and
// the reference configuration must still eliminate it — exactly the
// paper's C-Reduce interestingness test (§4.3).
func InterestingnessFor(marker string, target, reference *pipeline.Config) reduce.Interestingness {
	return func(p *ast.Program) bool {
		ins, markers, ok := asInstrumented(p)
		if !ok {
			return false
		}
		found := false
		for _, m := range markers {
			if m == marker {
				found = true
			}
		}
		if !found {
			return false
		}
		truth, err := core.GroundTruth(ins)
		if err != nil {
			return false
		}
		if truth.Alive[marker] {
			return false // must still be dead
		}
		tc, err := core.Compile(ins, target, core.Hooks{})
		if err != nil || !tc.Alive[marker] {
			return false // target must still miss it
		}
		if reference != nil {
			rc, err := core.Compile(ins, reference, core.Hooks{})
			if err != nil || rc.Alive[marker] {
				return false // reference must still eliminate it
			}
		}
		return true
	}
}

// asInstrumented wraps an already-instrumented program (markers are plain
// extern calls in the source) into the instrument.Program shape the core
// package consumes, without re-instrumenting.
func asInstrumented(p *ast.Program) (*instrument.Program, []string, bool) {
	ins := &instrument.Program{Prog: p}
	var names []string
	for _, f := range p.Funcs() {
		if f.Body == nil && instrument.IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, instrument.Marker{ID: len(ins.Markers), Name: f.Name})
			names = append(names, f.Name)
		}
	}
	// Reject programs that no longer execute (e.g. main dropped).
	if _, err := interp.Run(p, interp.Options{}); err != nil {
		return nil, nil, false
	}
	return ins, names, true
}

// ReducedCase is a reduced, deduplicable finding.
type ReducedCase struct {
	Finding Finding
	Source  string
	Hash    string
	Nodes   int
}

// ReduceFinding reduces the program of a finding with the standard
// interestingness test. For compiler-diff findings the reference is the
// other personality at -O3; for level regressions it is the same
// personality at -O1.
func (c *Campaign) ReduceFinding(f Finding, opts reduce.Options) (*ReducedCase, error) {
	r := c.Result(f.Seed)
	if r == nil || r.Err != nil {
		return nil, fmt.Errorf("corpus: no result for seed %d", f.Seed)
	}
	target := pipeline.New(f.Personality, f.Level)
	var reference *pipeline.Config
	if f.Kind == KindCompilerDiff {
		reference = pipeline.New(other(f.Personality), pipeline.O3)
	} else {
		reference = pipeline.New(f.Personality, pipeline.O1)
	}
	test := InterestingnessFor(f.Marker, target, reference)
	res := reduce.Reduce(r.Ins.Prog, test, opts)
	src := ast.Print(res.Program)
	sum := sha256.Sum256([]byte(normalizeForDedup(src, f.Marker)))
	return &ReducedCase{
		Finding: f,
		Source:  src,
		Hash:    hex.EncodeToString(sum[:8]),
		Nodes:   res.NodesAfter,
	}, nil
}

// normalizeForDedup alpha-renames every identifier to a canonical
// position-based name (and the distinguished marker to MARKER), so that
// structurally identical reductions of different findings collide — the
// deduplication the paper performs before reporting (§4.2 mentions 5 of
// GCC's reports being duplicates).
func normalizeForDedup(src, marker string) string {
	prog, err := parser.Parse(src)
	if err != nil {
		return src // fall back to textual identity
	}
	if err := sema.Check(prog); err != nil {
		return src
	}
	gi, fi := 0, 0
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			d.Name = fmt.Sprintf("g%d", gi)
			gi++
		case *ast.FuncDecl:
			switch {
			case d.Name == marker:
				d.Name = "MARKER"
			case instrument.IsMarker(d.Name):
				d.Name = fmt.Sprintf("m%d", fi)
				fi++
			case d.Name == "main":
				// keep
			default:
				d.Name = fmt.Sprintf("f%d", fi)
				fi++
			}
		}
	}
	for _, f := range prog.Funcs() {
		li := 0
		for _, p := range f.Params {
			p.Name = fmt.Sprintf("p%d", li)
			li++
		}
		if f.Body == nil {
			continue
		}
		ast.Inspect(f.Body, func(n ast.Node) bool {
			if ds, ok := n.(*ast.DeclStmt); ok {
				ds.Decl.Name = fmt.Sprintf("v%d", li)
				li++
			}
			return true
		})
	}
	// Propagate the new names to every resolved reference.
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.VarRef:
			if n.Obj != nil {
				n.Name = n.Obj.Name
			}
		case *ast.Call:
			if n.Fn != nil {
				n.Name = n.Fn.Name
			}
		}
		return true
	})
	return ast.Print(prog)
}

func other(p pipeline.Personality) pipeline.Personality {
	if p == pipeline.GCC {
		return pipeline.LLVM
	}
	return pipeline.GCC
}

// Triage mirrors Table 5: reduced cases are deduplicated into reports;
// a report is Confirmed when it still reproduces at the tested version
// (always true by construction, minus duplicates) and Fixed when the
// personality's future fixes make the marker eliminable.
type Triage struct {
	Reported  int
	Confirmed int
	Duplicate int
	Fixed     int
}

// TriageCases runs the triage model over reduced cases of one personality.
func TriageCases(p pipeline.Personality, cases []*ReducedCase) (*Triage, error) {
	t := &Triage{}
	seen := map[string]bool{}
	futureO3 := pipeline.FutureConfig(p, pipeline.O3)
	futureO1 := pipeline.FutureConfig(p, pipeline.O1)
	for _, rc := range cases {
		if rc.Finding.Personality != p {
			continue
		}
		t.Reported++
		if seen[rc.Hash] {
			t.Duplicate++
			continue
		}
		seen[rc.Hash] = true
		t.Confirmed++
		// Fixed: under the future configuration the marker is eliminated.
		prog, err := parser.Parse(rc.Source)
		if err != nil {
			return nil, fmt.Errorf("corpus: reduced case does not reparse: %w", err)
		}
		if err := sema.Check(prog); err != nil {
			return nil, fmt.Errorf("corpus: reduced case does not recheck: %w", err)
		}
		ins, _, ok := asInstrumented(prog)
		if !ok {
			continue
		}
		cfg := futureO3
		if rc.Finding.Level == pipeline.O1 {
			cfg = futureO1
		}
		comp, err := core.Compile(ins, cfg, core.Hooks{})
		if err != nil {
			return nil, err
		}
		if !comp.Alive[rc.Finding.Marker] {
			t.Fixed++
		}
	}
	return t, nil
}

// BisectRegressions bisects a personality's -O3 findings down to offending
// commits, following the paper's procedure: locate a previous compiler
// version in which the missed call was eliminated, then bisect between it
// and the current version. Both level-diff and compiler-diff findings are
// candidates (either kind may be a version regression); misses that every
// version shares are skipped as long-standing limitations. Duplicate
// (seed, marker) pairs are bisected once.
func (c *Campaign) BisectRegressions(p pipeline.Personality, primaryOnly bool, max int) ([]*bisect.Outcome, int, error) {
	findings := append(c.FindingsOf(KindLevelDiff, p, primaryOnly),
		c.FindingsOf(KindCompilerDiff, p, primaryOnly)...)
	seen := map[string]bool{}
	var outcomes []*bisect.Outcome
	attempted := 0
	for _, f := range findings {
		key := fmt.Sprintf("%d/%s", f.Seed, f.Marker)
		if seen[key] {
			continue
		}
		seen[key] = true
		if max > 0 && attempted >= max {
			break
		}
		r := c.Result(f.Seed)
		if r == nil || r.Err != nil {
			continue
		}
		attempted++
		out, err := bisect.Regression(r.Ins, p, pipeline.O3, f.Marker)
		if err != nil {
			continue // not a regression (long-standing miss): skip
		}
		outcomes = append(outcomes, out)
	}
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].Commit.ID != outcomes[j].Commit.ID {
			return outcomes[i].Commit.ID < outcomes[j].Commit.ID
		}
		return outcomes[i].Marker < outcomes[j].Marker
	})
	return outcomes, attempted, nil
}
