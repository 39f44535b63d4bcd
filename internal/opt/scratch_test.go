package opt

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
)

// remarkSink is an observer that is also a remark sink, so a pipeline run
// under it takes the passes' remark paths too.
type remarkSink struct{}

func (remarkSink) BeginPipeline(*ir.Module)                          {}
func (remarkSink) AfterPass(*ir.Module, string, int, int, PassStats) {}
func (remarkSink) Remark(Remark)                                     {}

// pinnedSlot returns the path of the first slot in v that references
// memory: a non-nil pointer, interface, func or channel, a non-empty
// string or map, looking through structs, arrays, and every element of a
// slice up to its capacity.
func pinnedSlot(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return "", !v.IsNil()
	case reflect.Map, reflect.String:
		return "", v.Len() > 0
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := pinnedSlot(v.Field(i)); ok {
				return "." + v.Type().Field(i).Name + p, true
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if p, ok := pinnedSlot(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, p), true
			}
		}
	}
	return "", false
}

// TestPooledScratchZero checks the pooled-scratch rule (scratch.go): after
// the pooled passes have run over generated modules, every state taken
// back from the sccp, dce, gvn and relocator pools references nothing —
// each slot of each pointer-holding table is nil over the table's full
// capacity, so no pool pins a finished module. The collector is off, so
// no pooled state is dropped before it is inspected, and one P puts every
// state where the inspecting goroutine can take it back.
func TestPooledScratchZero(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	o := Options{
		GlobalProp: GlobalPropSameConst, Alias: AliasBaseObject,
		FoldPtrCmpNonzeroOffset: true, ShiftNonzeroRelation: true,
		LoadForwarding: true, RedundantStoreElim: true,
		InlineBudget: 40, UnrollMaxTrip: 8,
	}
	passes := []Pass{Compact, Mem2Reg, IPSCCP, SCCP, InstCombine, SimplifyCFG, Inline,
		LICM, GVN, VRP, DCE, Unroll, SCCP, InstCombine, GVN, DCE, SimplifyCFG}
	compile := func(seed int64) {
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
	// drain takes every state out of pool.
	drain := func(pool *sync.Pool) []any {
		newState := pool.New
		pool.New = nil // Get returns nil once the pool is empty
		var states []any
		for x := pool.Get(); x != nil; x = pool.Get() {
			states = append(states, x)
		}
		pool.New = newState
		return states
	}

	var seed int64
	for seed < 12 {
		seed++
		compile(seed)
	}
	for _, p := range []struct {
		name string
		pool *sync.Pool
	}{{"sccp", &sccpPool}, {"dce", &dcePool}, {"gvn", &gvnPool}, {"relocator", &relocPool}} {
		states := drain(p.pool)
		// The race detector makes sync.Pool drop a quarter of all Puts,
		// so the pool may hold nothing; compile until it does.
		for tries := 0; len(states) == 0 && tries < 30; tries++ {
			seed++
			compile(seed)
			states = drain(p.pool)
		}
		if len(states) == 0 {
			t.Errorf("the %s pool held no state after the passes ran", p.name)
		}
		for _, x := range states {
			if path, ok := pinnedSlot(reflect.ValueOf(x).Elem()); ok {
				t.Errorf("pooled %s state references memory at %s", p.name, path)
			}
		}
	}
}
