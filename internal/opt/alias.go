package opt

import (
	"dcelens/internal/ir"
)

// Loc is a resolved memory location: a base object (global, alloca, or an
// SSA pointer of unknown provenance) plus an element offset when it is
// constant.
type Loc struct {
	G        *ir.Global // non-nil for global storage
	A        *ir.Instr  // non-nil for a known alloca
	Base     *ir.Instr  // unknown-provenance base (load result, param, phi, select)
	Off      int64
	OffKnown bool
}

// ResolveLoc traces an address value through GEP chains to its base.
func ResolveLoc(addr *ir.Instr) Loc {
	off := int64(0)
	offKnown := true
	for addr.Op == ir.OpGEP {
		if idx, ok := isConst(addr.Args[1]); ok {
			off += idx
		} else {
			offKnown = false
		}
		addr = addr.Args[0]
	}
	switch addr.Op {
	case ir.OpGlobalAddr:
		return Loc{G: addr.Global, Off: off, OffKnown: offKnown}
	case ir.OpAlloca:
		return Loc{A: addr, Off: off, OffKnown: offKnown}
	default:
		return Loc{Base: addr, Off: off, OffKnown: offKnown}
	}
}

// AliasCtx caches per-function exposure information for alias queries.
type AliasCtx struct {
	Level   AliasLevel
	exposed []bool // dense by instruction ID at context-build time
}

// NewAliasCtx builds an alias-query context for f at the given precision.
// ComputeEscapes must have run on the module for global exposure to be
// accurate.
func NewAliasCtx(f *ir.Func, level AliasLevel) *AliasCtx {
	c := new(AliasCtx)
	c.reset(f, level)
	return c
}

// reset makes c the context for f, reusing its table. Pooled pass states
// hold an AliasCtx; its table holds no pointers (scratch.go).
func (c *AliasCtx) reset(f *ir.Func, level AliasLevel) {
	c.Level, c.exposed = level, exposedValues(f, c.exposed)
}

// isExposed reports whether a (an alloca) was address-exposed when the
// context was built. Values created after that point are out of range and
// report false — passes never create allocas mid-flight, so every queried
// base predates the context.
func (c *AliasCtx) isExposed(a *ir.Instr) bool {
	return int(a.ID) < len(c.exposed) && c.exposed[a.ID]
}

// MayAlias reports whether two locations can overlap, at the configured
// precision. AliasConservative answers "maybe" for everything involving a
// pointer of unknown provenance — the degraded mode a version-history
// commit switches gcc-sim's -O3 pipeline into (paper Listing 9c).
// AliasBaseObject additionally exploits AddrExposed: an unknown pointer can
// only point at address-exposed objects.
func (c *AliasCtx) MayAlias(a, b Loc) bool {
	level := c.Level
	// Identical known bases: decide by offsets.
	switch {
	case a.G != nil && b.G != nil:
		if a.G != b.G {
			return false // distinct globals never overlap
		}
		return sameOrUnknownOff(a, b)
	case a.A != nil && b.A != nil:
		if a.A != b.A {
			return false
		}
		return sameOrUnknownOff(a, b)
	case (a.G != nil && b.A != nil) || (a.A != nil && b.G != nil):
		return false // globals and stack slots are distinct storage
	}

	// At least one side has unknown provenance.
	if level == AliasConservative {
		return true
	}
	known, unknown := a, b
	if a.Base != nil && b.Base == nil {
		known, unknown = b, a
	}
	switch {
	case known.G != nil:
		return known.G.AddrExposed
	case known.A != nil:
		return c.isExposed(known.A)
	default:
		// both unknown: same base SSA value → offset logic; different
		// bases → maybe.
		if a.Base == b.Base {
			return sameOrUnknownOff(a, b)
		}
		_ = unknown
		return true
	}
}

// MustAlias reports whether two locations are certainly the same slot.
func MustAlias(a, b Loc) bool {
	if !a.OffKnown || !b.OffKnown || a.Off != b.Off {
		return false
	}
	switch {
	case a.G != nil:
		return a.G == b.G
	case a.A != nil:
		return a.A == b.A
	case a.Base != nil:
		return a.Base == b.Base
	}
	return false
}

func sameOrUnknownOff(a, b Loc) bool {
	if a.OffKnown && b.OffKnown {
		return a.Off == b.Off
	}
	return true
}
