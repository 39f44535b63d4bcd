package report

import (
	"fmt"
	"sort"
	"strings"

	"dcelens/internal/corpus"
)

// Remarks renders the campaign-wide remark aggregation: one row per pass
// with applied/missed counts, then the miss-reason histogram sorted by
// count (ties by name, so the table is deterministic). Empty when the
// campaign ran without Options.Remarks.
func Remarks(s *corpus.Stats) string {
	r := s.Remarks
	if r == nil || (len(r.Applied) == 0 && len(r.Missed) == 0) {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Optimization remarks\n")
	fmt.Fprintf(&sb, "%-12s %8s %8s\n", "Pass", "Applied", "Missed")
	passes := map[string]bool{}
	for p := range r.Applied {
		passes[p] = true
	}
	for p := range r.Missed {
		passes[p] = true
	}
	names := make([]string, 0, len(passes))
	for p := range passes {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		fmt.Fprintf(&sb, "%-12s %8d %8d\n", p, r.Applied[p], r.Missed[p])
	}
	if len(r.Reasons) > 0 {
		sb.WriteString("Top miss reasons\n")
		for _, rc := range TopReasons(r.Reasons, 0) {
			fmt.Fprintf(&sb, "  %-16s %6d\n", rc.Reason, rc.Count)
		}
	}
	return sb.String()
}

// ReasonCount is one row of the miss-reason histogram.
type ReasonCount struct {
	Reason string
	Count  int
}

// TopReasons sorts a miss-reason histogram by descending count (ties by
// reason name); n > 0 keeps only the first n rows.
func TopReasons(reasons map[string]int, n int) []ReasonCount {
	rows := make([]ReasonCount, 0, len(reasons))
	for r, c := range reasons {
		rows = append(rows, ReasonCount{Reason: r, Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Reason < rows[j].Reason
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Explain renders one finding's missed-optimization narrative: the finding
// header and its nearest-miss chain — the ordered (pass, reason) decisions
// that kept the marker's code alive in the missing compilation. The
// rendering is a pure function of the finding, so it is byte-identical
// across worker counts, shards, and resumes.
func Explain(f corpus.Finding) string {
	var sb strings.Builder
	prim := ""
	if f.Primary {
		prim = " primary"
	}
	fmt.Fprintf(&sb, "seed %d marker %s: %s by %s at %s%s\n",
		f.Seed, f.Marker, f.Kind, f.Personality, f.Level, prim)
	if f.Context != "" {
		fmt.Fprintf(&sb, "  context: %s\n", f.Context)
	}
	if len(f.Chain) == 0 {
		sb.WriteString("  no nearest-miss chain recorded (campaign ran without remarks)\n")
		return sb.String()
	}
	sb.WriteString("  why the code stayed alive:\n")
	for i, step := range f.Chain {
		fmt.Fprintf(&sb, "  %2d. %-10s %-16s %s\n", i+1, step.Pass, step.Reason, step.Subject)
		if step.Detail != "" {
			fmt.Fprintf(&sb, "      %s\n", step.Detail)
		}
	}
	return sb.String()
}

// ExplainAll renders every finding's narrative, blank-line separated, in
// the findings' (already deterministic) order.
func ExplainAll(fs []corpus.Finding) string {
	var sb strings.Builder
	for i, f := range fs {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(Explain(f))
	}
	return sb.String()
}
