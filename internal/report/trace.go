package report

import (
	"fmt"
	"strings"
	"time"

	"dcelens/internal/trace"
)

// PassProfileTable renders a compilation trace: one row per executed pass
// instance with IR-size deltas and eliminated-marker counts. With
// withTiming, a wall-time column is included; without it, the rendering is
// a pure function of the compilation and therefore byte-identical across
// runs of the same seed (the determinism the provenance tests pin down).
func PassProfileTable(p *trace.Profile, withTiming bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pass pipeline profile (%d pass instances, %d markers at entry, %d surviving)\n",
		len(p.Passes), len(p.InitialSurviving), len(p.FinalSurviving))
	if withTiming {
		fmt.Fprintf(&sb, "%-22s %4s %10s %8s %8s %8s %6s\n",
			"pass", "chg", "time", "funcs", "blocks", "instrs", "elims")
	} else {
		fmt.Fprintf(&sb, "%-22s %4s %8s %8s %8s %6s\n",
			"pass", "chg", "funcs", "blocks", "instrs", "elims")
	}
	for i := range p.Passes {
		pp := &p.Passes[i]
		chg := ""
		if pp.Changed {
			chg = "*"
		}
		if withTiming {
			fmt.Fprintf(&sb, "%-22s %4s %10s %8s %8s %8s %6d\n",
				pp.Ref, chg, pp.Duration.Round(time.Microsecond).String(),
				delta(pp.Funcs, pp.DFuncs), delta(pp.Blocks, pp.DBlocks), delta(pp.Instrs, pp.DInstrs),
				len(pp.Eliminated))
		} else {
			fmt.Fprintf(&sb, "%-22s %4s %8s %8s %8s %6d\n",
				pp.Ref, chg,
				delta(pp.Funcs, pp.DFuncs), delta(pp.Blocks, pp.DBlocks), delta(pp.Instrs, pp.DInstrs),
				len(pp.Eliminated))
		}
	}
	return sb.String()
}

func delta(abs, d int) string {
	if d == 0 {
		return fmt.Sprintf("%d", abs)
	}
	return fmt.Sprintf("%d%+d", abs, d)
}

// ProvenanceTable renders the marker→killer attribution of one
// compilation, sorted by marker name.
func ProvenanceTable(p *trace.Provenance) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Marker provenance (%d eliminations)\n", len(p.Markers))
	for _, m := range p.Markers {
		ref := p.Killer[m]
		fmt.Fprintf(&sb, "  %-16s killed by %-20s (%s)\n", m, ref, trace.ComponentOf(ref.Pass))
	}
	return sb.String()
}

// AttributionTable renders the campaign-wide eliminations-per-pass rows —
// the trace-side analogue of Tables 3/4 ("which components eliminate",
// where the paper's tables say "which components regressed").
func AttributionTable(title string, rows []trace.PassElims) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-18s %-30s %14s\n", "Pass", "Component", "# Eliminations")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %-30s %14d\n", r.Pass, r.Component, r.Eliminations)
		total += r.Eliminations
	}
	fmt.Fprintf(&sb, "%-18s %-30s %14d\n", "total", "", total)
	return sb.String()
}
