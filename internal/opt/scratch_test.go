package opt

import (
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/pool"
	"dcelens/internal/pool/pooltest"
)

// remarkSink is an observer that is also a remark sink, so a pipeline run
// under it takes the passes' remark paths too.
type remarkSink struct{}

func (remarkSink) BeginPipeline(*ir.Module)                          {}
func (remarkSink) AfterPass(*ir.Module, string, int, int, PassStats) {}
func (remarkSink) Remark(Remark)                                     {}

// TestPooledScratchZero checks the pooled-scratch rule (scratch.go): after
// the pooled passes have run over generated modules, every state taken
// back from the pass, analysis and relocator pools references nothing —
// each slot of each pointer-holding table is nil over the table's full
// capacity, so no pool pins a finished module.
func TestPooledScratchZero(t *testing.T) {
	o := Options{
		GlobalProp: GlobalPropSameConst, Alias: AliasBaseObject,
		FoldPtrCmpNonzeroOffset: true, ShiftNonzeroRelation: true,
		LoadForwarding: true, RedundantStoreElim: true, WidenPointerLoopStores: true,
		InlineBudget: 40, UnrollMaxTrip: 8,
	}
	passes := []Pass{Compact, Mem2Reg, IPSCCP, SCCP, InstCombine, SimplifyCFG, Inline,
		LICM, GVN, VRP, DCE, Unroll, Unswitch, WidenStores, SCCP, InstCombine, GVN, DCE,
		JumpThread, SimplifyCFG}
	for seed := int64(1); seed <= 12; seed++ {
		ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Fatal(err)
		}
		// Odd seeds run with remarks on, even ones without.
		var obs Observer
		if seed%2 == 1 {
			obs = remarkSink{}
		}
		if err := ObservedPipeline(NewRun(m, o, passes, 2), obs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, p := range []struct {
		name   string
		states []any
	}{
		{"sccp", drain(&sccpPool)}, {"dce", drain(&dcePool)}, {"gvn", drain(&gvnPool)},
		{"licm", drain(&licmPool)}, {"vrp", drain(&vrpPool)}, {"cfg", drain(&cfgPool)},
		{"clone", drain(&clonePool)}, {"access", drain(&accessPool)},
		{"escape", drain(&escapePool)}, {"relocator", drain(&relocPool)},
	} {
		if len(p.states) == 0 {
			t.Errorf("the %s pool held no state after the passes ran", p.name)
		}
		for _, x := range p.states {
			if path, ok := pooltest.Pinned(x); ok {
				t.Errorf("pooled %s state references memory at %s", p.name, path)
			}
		}
	}
}

// drain takes every state out of p.
func drain[T any](p *pool.Pool[T]) []any {
	var states []any
	for _, x := range pooltest.Drain(p) {
		states = append(states, x)
	}
	return states
}
