package remark

import (
	"testing"

	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
)

func missed(pass, fn, subject string, reason opt.Reason) opt.Remark {
	return opt.Remark{Kind: opt.RemarkMissed, Pass: pass, Fn: fn, Subject: subject, Reason: reason}
}

// TestCollectorDedupe checks that fixpoint re-emissions — the same decision
// re-derived at a different schedule index or iteration — collapse to the
// first occurrence, while genuinely distinct decisions do not.
func TestCollectorDedupe(t *testing.T) {
	c := NewCollector(nil)
	r := missed("gvn", "f", "load g", opt.ReasonAliasUnknown)
	c.Remark(r)

	dup := r
	dup.ScheduleIndex, dup.Iteration = 5, 2
	c.Remark(dup)
	if c.Len() != 1 {
		t.Fatalf("after positional duplicate: Len = %d, want 1", c.Len())
	}

	other := r
	other.Subject = "load h"
	c.Remark(other)
	c.Remark(opt.Remark{Kind: opt.RemarkAnalysis, Pass: "gvn", Fn: "f", Subject: "load g"})
	if c.Len() != 3 {
		t.Fatalf("after distinct remarks: Len = %d, want 3", c.Len())
	}
	if got := c.Remarks()[0]; got != r {
		t.Errorf("emission order lost: first remark = %+v, want %+v", got, r)
	}
}

// TestProfileCounts checks the per-pass reduction: applied counts tallied
// over pass instances, missed/analysis tallies, the miss-reason histogram,
// and pass-name ordering; a pass with nothing to count is absent.
func TestProfileCounts(t *testing.T) {
	c := NewCollector(nil)
	c.AfterPass(nil, "licm", 3, 0, opt.PassStats{Changed: true, Applied: 1})
	c.AfterPass(nil, "sccp", 4, 0, opt.PassStats{})
	c.AfterPass(nil, "licm", 3, 1, opt.PassStats{Changed: true, Applied: 1})
	c.Remark(missed("licm", "f", "store g", opt.ReasonAliasUnknown))
	c.Remark(missed("gvn", "f", "load g", opt.ReasonAliasUnknown))
	c.Remark(missed("gvn", "g", "load h", opt.ReasonCallClobber))
	c.Remark(opt.Remark{Kind: opt.RemarkAnalysis, Pass: "gvn", Fn: "f", Subject: "escape set"})

	p := c.Profile()
	if p.Total != 6 {
		t.Fatalf("Total = %d, want 6", p.Total)
	}
	want := []PassCount{
		{Pass: "gvn", Missed: 2, Analysis: 1},
		{Pass: "licm", Applied: 2, Missed: 1},
	}
	if len(p.Passes) != len(want) {
		t.Fatalf("Passes = %+v, want %+v", p.Passes, want)
	}
	for i := range want {
		if p.Passes[i] != want[i] {
			t.Errorf("Passes[%d] = %+v, want %+v", i, p.Passes[i], want[i])
		}
	}
	if p.Reasons["alias-unknown"] != 2 || p.Reasons["call-clobber"] != 1 {
		t.Errorf("Reasons = %v, want alias-unknown:2 call-clobber:1", p.Reasons)
	}
	if p.Chains != nil {
		t.Errorf("no module captured, yet Chains = %v", p.Chains)
	}
	if got := p.Chain("DCEMarker0"); got != nil {
		t.Errorf("Chain on chainless profile = %v, want nil", got)
	}
	var nilProfile *Profile
	if got := nilProfile.Chain("DCEMarker0"); got != nil {
		t.Errorf("Chain on nil profile = %v, want nil", got)
	}
}

// chainModule builds a module where DCEMarker0 survives inside f: the
// chain must contain f-scoped and module-scoped misses, in emission order,
// and exclude misses recorded in unrelated functions.
func chainModule() *ir.Module {
	marker := &ir.Func{Name: "DCEMarker0", External: true}
	f := &ir.Func{Name: "f"}
	f.NewBlock().Append(ir.OpCall, nil)
	f.Entry().Instrs[0].Callee = marker
	g := &ir.Func{Name: "g"}
	g.NewBlock()
	return &ir.Module{Funcs: []*ir.Func{f, g, marker}}
}

// TestProfileChains checks nearest-miss chain assembly: scoping, ordering,
// the Missed-only filter, and the chain cap.
func TestProfileChains(t *testing.T) {
	c := NewCollector(instrument.IsMarker)
	c.BeginPipeline(chainModule())
	c.Remark(missed("dce", "f", "call DCEMarker0", opt.ReasonSideEffects))
	c.Remark(missed("gvn", "g", "load h", opt.ReasonCallClobber)) // wrong function
	c.Remark(opt.Remark{Kind: opt.RemarkAnalysis, Pass: "licm", Fn: "f", Subject: "loop nest"})
	c.Remark(missed("ipsccp", "", "global g_1", opt.ReasonEscape)) // module scope
	c.Remark(missed("licm", "f", "store g_1", opt.ReasonLoopCarried))

	chain := c.Profile().Chain("DCEMarker0")
	want := []ChainStep{
		{Pass: "dce", Reason: "side-effects", Subject: "call DCEMarker0"},
		{Pass: "ipsccp", Reason: "escape", Subject: "global g_1"},
		{Pass: "licm", Reason: "loop-carried", Subject: "store g_1"},
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %+v, want %+v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Errorf("chain[%d] = %+v, want %+v", i, chain[i], want[i])
		}
	}
}

// TestChainCap checks that a flood of misses truncates to chainCap: the
// decisions nearest the marker lead, and the tail stops adding signal.
func TestChainCap(t *testing.T) {
	c := NewCollector(instrument.IsMarker)
	c.BeginPipeline(chainModule())
	for i := 0; i < 2*chainCap; i++ {
		c.Remark(missed("gvn", "f", "load g_"+string(rune('a'+i)), opt.ReasonAliasUnknown))
	}
	if chain := c.Profile().Chain("DCEMarker0"); len(chain) != chainCap {
		t.Fatalf("chain length = %d, want cap %d", len(chain), chainCap)
	}
}
