package corpus

import (
	"fmt"
	"sort"

	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/pipeline"
	"dcelens/internal/trace"
)

// EliminationsPerPass aggregates the campaign's marker provenance for one
// configuration into the eliminations-per-pass table: for each pass
// (across all of its schedule instances), how many dead markers it
// eliminated, labelled with the pass's compiler component. The table is
// the trace-side analogue of the paper's Tables 3/4 — instead of "which
// commits broke eliminations", it answers "which components perform them".
// Requires a campaign run with Options.Trace; programs without traces
// contribute nothing. Aggregation is slice-ordered throughout, so the same
// campaign yields byte-identical rows.
func (c *Campaign) EliminationsPerPass(key ConfigKey) []trace.PassElims {
	counts := map[string]int{}
	for _, r := range c.Programs {
		if r == nil || r.Err != nil {
			continue
		}
		an := r.PerCfg[key]
		if an == nil || an.Trace == nil {
			continue
		}
		dead := map[string]bool{}
		for _, m := range r.Truth.Dead {
			dead[m] = true
		}
		prov := an.Trace.Provenance()
		for _, m := range prov.Markers {
			if dead[m] {
				counts[prov.Killer[m].Pass]++
			}
		}
	}
	passes := make([]string, 0, len(counts))
	for p := range counts {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	rows := make([]trace.PassElims, 0, len(passes))
	for _, p := range passes {
		rows = append(rows, trace.PassElims{
			Pass:         p,
			Component:    trace.ComponentOf(p),
			Eliminations: counts[p],
		})
	}
	trace.SortElims(rows)
	return rows
}

// attributionReference picks the configuration that eliminates a finding's
// marker: the other personality at -O3 for compiler-diff findings, and the
// same personality at the lower level that succeeded for level-diff
// findings (-O1 when it eliminates there, else -O2 — the definition in
// levelFindings).
func (c *Campaign) attributionReference(f Finding, r *ProgramResult) *pipeline.Config {
	if f.Kind == KindCompilerDiff {
		return pipeline.New(other(f.Personality), pipeline.O3)
	}
	o1 := r.PerCfg[ConfigKey{Personality: f.Personality, Level: pipeline.O1}]
	if o1 != nil && !o1.Compilation.Alive[f.Marker] {
		return pipeline.New(f.Personality, pipeline.O1)
	}
	return pipeline.New(f.Personality, pipeline.O2)
}

// AttributeFinding answers "who eliminates this marker?" for a finding:
// it re-compiles the program under the configuration that succeeds, with
// tracing attached, and returns the provenance entry naming the pass
// instance responsible. This is the cheap per-finding root cause the paper
// obtains only for regressions via history bisection.
func (c *Campaign) AttributeFinding(f Finding) (*trace.Attribution, error) {
	r := c.Result(f.Seed)
	if r == nil || r.Err != nil {
		return nil, fmt.Errorf("corpus: no result for seed %d", f.Seed)
	}
	ref := c.attributionReference(f, r)
	rec := trace.NewRecorder(r.Ins.MarkerNames(), instrument.IsMarker)
	comp, err := core.Compile(r.Ins, ref, core.Hooks{Trace: rec})
	if err != nil {
		return nil, err
	}
	if comp.Alive[f.Marker] {
		return nil, fmt.Errorf("corpus: %s does not eliminate %s (seed %d)", ref.Name(), f.Marker, f.Seed)
	}
	killer, ok := rec.Profile().Provenance().KillerOf(f.Marker)
	if !ok {
		return nil, fmt.Errorf("corpus: %s eliminated %s but provenance has no killer (seed %d)",
			ref.Name(), f.Marker, f.Seed)
	}
	return &trace.Attribution{
		Marker:     f.Marker,
		Eliminator: ref.Name(),
		Killer:     killer,
		Component:  trace.ComponentOf(killer.Pass),
	}, nil
}
