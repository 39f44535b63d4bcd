package opt

import "dcelens/internal/ir"

// Hooks for reuse_test.go, an external test because it builds its
// modules with internal/pipeline, which imports this package.

// AccessIndex is the index of the module's global accesses.
type AccessIndex = accessIndex

// NewAccessIndex returns an index that has no tables yet.
func NewAccessIndex() *AccessIndex {
	return &accessIndex{info: map[*ir.Global]*globalAccessInfo{}}
}

// Rebuild indexes m, reusing ai's tables.
func (ai *accessIndex) Rebuild(m *ir.Module) { ai.rebuild(m) }

// Info returns the index's entries.
func (ai *accessIndex) Info() any { return ai.info }

// EscapeTables are the escape computation's per-value tables.
type EscapeTables = escapeTables

// Compute recomputes m's escape flags, reusing t's tables.
func (t *escapeTables) Compute(m *ir.Module) { t.compute(m) }

// ExposedValues computes f's exposed values over exp's array.
var ExposedValues = exposedValues
