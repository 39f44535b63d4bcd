package corpus

import (
	"fmt"
	"sort"

	"dcelens/internal/harness"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
)

// CfgOutcome is one configuration's contribution to a seed's outcome.
type CfgOutcome struct {
	Personality pipeline.Personality `json:"personality"`
	Level       pipeline.Level       `json:"level"`
	Missed      int                  `json:"missed"`
	Primary     int                  `json:"primary"`
}

// SeedOutcome is the compact, JSON-serializable summary of one seed's
// campaign contribution — everything aggregation needs, independent of the
// heavyweight in-memory ProgramResult. Checkpoints persist these verbatim,
// and aggregate() consumes only these, which is what makes a resumed
// campaign's report byte-identical to an uninterrupted run's.
type SeedOutcome struct {
	Seed    int64 `json:"seed"`
	Markers int   `json:"markers,omitempty"`
	Dead    int   `json:"dead,omitempty"`
	Alive   int   `json:"alive,omitempty"`
	// Ok reports that the program itself was analyzable (individual
	// configs may still have failed; see Failures).
	Ok bool `json:"ok"`
	// Err is the program-level failure text ("" when Ok).
	Err      string            `json:"err,omitempty"`
	Configs  []CfgOutcome      `json:"configs,omitempty"`
	Findings []Finding         `json:"findings,omitempty"`
	Failures []harness.Failure `json:"failures,omitempty"`
	// Remarks summarizes the seed's optimization remarks across every
	// configuration; nil unless the campaign ran with Options.Remarks.
	Remarks *RemarkSummary `json:"remarks,omitempty"`
}

// RemarkSummary is a seed's (or job's) remark aggregation: per-pass applied
// and missed counts plus the miss-reason histogram. Maps keep JSON output
// deterministic (encoding/json sorts keys).
type RemarkSummary struct {
	Applied map[string]int `json:"applied,omitempty"`
	Missed  map[string]int `json:"missed,omitempty"`
	Reasons map[string]int `json:"reasons,omitempty"`
}

// add folds one compilation's remark profile into the summary.
func (s *RemarkSummary) add(p *remark.Profile) {
	if p == nil {
		return
	}
	for _, pc := range p.Passes {
		if pc.Applied > 0 {
			if s.Applied == nil {
				s.Applied = map[string]int{}
			}
			s.Applied[pc.Pass] += pc.Applied
		}
		if pc.Missed > 0 {
			if s.Missed == nil {
				s.Missed = map[string]int{}
			}
			s.Missed[pc.Pass] += pc.Missed
		}
	}
	s.Reasons = addCounts(s.Reasons, p.Reasons)
}

// merge folds another summary into s.
func (s *RemarkSummary) merge(o *RemarkSummary) {
	s.Applied = addCounts(s.Applied, o.Applied)
	s.Missed = addCounts(s.Missed, o.Missed)
	s.Reasons = addCounts(s.Reasons, o.Reasons)
}

// addCounts adds src's counts into dst, allocating dst on first use.
func addCounts(dst, src map[string]int) map[string]int {
	for k, n := range src {
		if dst == nil {
			dst = map[string]int{}
		}
		dst[k] += n
	}
	return dst
}

// outcomeOf condenses a ProgramResult into its serializable outcome.
func outcomeOf(o Options, r *ProgramResult) *SeedOutcome {
	out := &SeedOutcome{Seed: r.Seed, Failures: r.Failures}
	if r.Err != nil {
		out.Err = r.Err.Error()
		return out
	}
	out.Ok = true
	out.Markers = len(r.Ins.Markers)
	out.Dead = len(r.Truth.Dead)
	out.Alive = len(r.Truth.Alive)
	var rsum RemarkSummary
	for _, p := range o.Personalities {
		for _, lvl := range o.Levels {
			an := r.PerCfg[ConfigKey{p, lvl}]
			if an == nil {
				continue // this config failed; its Failure is recorded
			}
			out.Configs = append(out.Configs, CfgOutcome{
				Personality: p,
				Level:       lvl,
				Missed:      len(an.Missed),
				Primary:     len(an.PrimaryMissed),
			})
			rsum.add(an.Remarks)
		}
	}
	if o.Remarks {
		out.Remarks = &rsum
	}
	out.Findings = append(out.Findings, diffFindings(o, r)...)
	out.Findings = append(out.Findings, levelFindings(o, r)...)
	sort.Slice(out.Findings, func(i, j int) bool {
		return findingLess(out.Findings[i], out.Findings[j])
	})
	return out
}

// campaignMeta identifies a campaign for checkpoint binding: resuming with
// different options would silently mix incomparable outcomes.
func campaignMeta(o Options) map[string]string {
	perss := ""
	for _, p := range o.Personalities {
		perss += string(p) + ";"
	}
	lvls := ""
	for _, l := range o.Levels {
		lvls += l.String() + ";"
	}
	return map[string]string{
		"base_seed":     fmt.Sprint(o.BaseSeed),
		"trace":         fmt.Sprint(o.Trace),
		"remarks":       fmt.Sprint(o.Remarks),
		"verify":        fmt.Sprint(o.VerifySemantics),
		"personalities": perss,
		"levels":        lvls,
		"shard":         o.Shard.String(),
	}
}
