// Package bisect locates the version-history commit that introduced a
// missed optimization — the regression analysis of paper §4.2 ("Missed
// optimization diversity"), which feeds the component categorization of
// Tables 3 and 4.
package bisect

import (
	"fmt"
	"sort"

	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/pipeline"
)

// Outcome describes one bisected regression.
type Outcome struct {
	Marker      string
	Personality pipeline.Personality
	Level       pipeline.Level
	// CommitIndex is the 1-based index of the offending commit in the
	// personality's history; Commit is the entry itself.
	CommitIndex int
	Commit      pipeline.Commit
}

// MissedAt reports whether the marker survives compilation of ins at the
// given personality/level/version.
func MissedAt(ins *instrument.Program, p pipeline.Personality, lvl pipeline.Level, commits int, marker string) (bool, error) {
	comp, err := core.Compile(ins, pipeline.AtCommit(p, lvl, commits), core.Hooks{})
	if err != nil {
		return false, err
	}
	return comp.Alive[marker], nil
}

// Regression bisects the history of personality p for the commit at which
// the (dead) marker stopped being eliminated at the given level. Like git
// bisect, it first locates the most recent good version (a marker can be
// "unfixed" at the base, gain eliminability from an improvement commit,
// and lose it again to a regression — the Listing 9e vectorizer story);
// it then binary-searches the (good, head] range. An error means the miss
// is a long-standing limitation, not a regression.
func Regression(ins *instrument.Program, p pipeline.Personality, lvl pipeline.Level, marker string) (*Outcome, error) {
	h := pipeline.History(p)
	n := len(h)
	headMissed, err := MissedAt(ins, p, lvl, n, marker)
	if err != nil {
		return nil, err
	}
	if !headMissed {
		return nil, fmt.Errorf("bisect: %s is not missed at the latest version", marker)
	}
	// Most recent good version strictly before head.
	good := -1
	for k := n - 1; k >= 0; k-- {
		missed, err := MissedAt(ins, p, lvl, k, marker)
		if err != nil {
			return nil, err
		}
		if !missed {
			good = k
			break
		}
	}
	if good < 0 {
		return nil, fmt.Errorf("bisect: %s is missed at every version (not a regression)", marker)
	}
	// Binary search for the first bad version in (good, n].
	lo, hi := good, n // lo good, hi bad
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		missed, err := MissedAt(ins, p, lvl, mid, marker)
		if err != nil {
			return nil, err
		}
		if missed {
			hi = mid
		} else {
			lo = mid
		}
	}
	return &Outcome{
		Marker:      marker,
		Personality: p,
		Level:       lvl,
		CommitIndex: hi,
		Commit:      h[hi-1],
	}, nil
}

// ComponentRow is one line of the paper's Tables 3/4: a compiler component
// with the number of distinct offending commits and touched files.
type ComponentRow struct {
	Component string
	Commits   int
	Files     int
}

// Categorize groups bisection outcomes by compiler component, counting
// unique commits and unique files per component — the exact aggregation of
// Tables 3 and 4.
func Categorize(outcomes []*Outcome) []ComponentRow {
	commitsByComp := map[string]map[string]bool{}
	filesByComp := map[string]map[string]bool{}
	for _, o := range outcomes {
		c := o.Commit
		if commitsByComp[c.Component] == nil {
			commitsByComp[c.Component] = map[string]bool{}
			filesByComp[c.Component] = map[string]bool{}
		}
		commitsByComp[c.Component][c.ID] = true
		for _, f := range c.Files {
			filesByComp[c.Component][f] = true
		}
	}
	var rows []ComponentRow
	for comp, commits := range commitsByComp {
		rows = append(rows, ComponentRow{
			Component: comp,
			Commits:   len(commits),
			Files:     len(filesByComp[comp]),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Component < rows[j].Component })
	return rows
}

// UniqueCommits counts the distinct offending commits in a set of
// outcomes (the paper reports 23 for GCC and 21 for LLVM).
func UniqueCommits(outcomes []*Outcome) int {
	ids := map[string]bool{}
	for _, o := range outcomes {
		ids[o.Commit.ID] = true
	}
	return len(ids)
}
