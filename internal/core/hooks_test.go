package core

import (
	"strings"
	"testing"
	"time"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/trace"
)

// funcObserver adapts a function to opt.Observer's AfterPass.
type funcObserver func(m *ir.Module, pass string, scheduleIndex int)

func (f funcObserver) BeginPipeline(*ir.Module) {}

func (f funcObserver) AfterPass(m *ir.Module, pass string, scheduleIndex, _ int, _ opt.PassStats) {
	f(m, pass, scheduleIndex)
}

func generated(t *testing.T, seed int64) *instrument.Program {
	t.Helper()
	ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// lowered returns the lowering a trie of ins starts from.
func lowered(t *testing.T, ins *instrument.Program) *Lowering {
	t.Helper()
	lw, err := Lower(ins)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// TestTraceAsmCrossCheckFails drives the failure path of the trace/asm
// cross-check: the caller's observer runs after the trace recorder, so a
// marker call it deletes at the last pass instance of -O0's two-instance
// schedule is still surviving in the trace but gone from the assembly.
func TestTraceAsmCrossCheckFails(t *testing.T) {
	ins := generated(t, 7)
	removed := false
	remove := funcObserver(func(m *ir.Module, _ string, scheduleIndex int) {
		if scheduleIndex != 1 || removed {
			return
		}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall && in.Callee != nil && instrument.IsMarker(in.Callee.Name) {
						in.Remove()
						removed = true
						return
					}
				}
			}
		}
	})
	rec := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	_, err := Compile(ins, pipeline.New(pipeline.GCC, pipeline.O0), Hooks{Observer: remove, Trace: rec})
	if !removed {
		t.Fatal("no marker call to remove at the second pass instance")
	}
	if err == nil || !strings.Contains(err.Error(), "trace/asm marker disagreement") {
		t.Fatalf("err = %v, want a trace/asm marker disagreement", err)
	}
	if !strings.Contains(err.Error(), "54 surviving in IR, 53 in assembly") {
		t.Errorf("err = %v, want the 54/53 marker counts of seed 7", err)
	}
}

// phaseLog is a Recorder that counts pass events and logs phases.
type phaseLog struct {
	passes  int
	phases  []string
	aborted []bool
}

func (p *phaseLog) BeginPipeline(*ir.Module) {}

func (p *phaseLog) AfterPass(*ir.Module, string, int, int, opt.PassStats) { p.passes++ }

func (p *phaseLog) Phase(name string, _ time.Time, _ time.Duration, aborted bool) {
	p.phases = append(p.phases, name)
	p.aborted = append(p.aborted, aborted)
}

// TestGuardAbortDispatch: a pass instance the guard aborts with a panic
// reaches the trace recorder (dispatched before the guard) but not the
// recorder (dispatched after it), and the recorder still hears about the
// opt phase, flagged aborted.
func TestGuardAbortDispatch(t *testing.T) {
	ins := generated(t, 7)
	const abortAt = 3
	seen := 0
	guard := funcObserver(func(*ir.Module, string, int) {
		if seen++; seen == abortAt {
			panic("guard abort")
		}
	})
	tr := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	rec := &phaseLog{}
	func() {
		defer func() {
			if r := recover(); r != "guard abort" {
				t.Fatalf("recovered %v, want the guard's panic", r)
			}
		}()
		Compile(ins, pipeline.New(pipeline.GCC, pipeline.O2), Hooks{Observer: guard, Trace: tr, Recorder: rec})
	}()
	if got := len(tr.Profile().Passes); got != abortAt {
		t.Errorf("trace recorded %d instances, want %d (the aborted one included)", got, abortAt)
	}
	if rec.passes != abortAt-1 {
		t.Errorf("recorder saw %d instances, want %d (the aborted one excluded)", rec.passes, abortAt-1)
	}
	if strings.Join(rec.phases, ",") != "lower,opt" || rec.aborted[0] || !rec.aborted[1] {
		t.Errorf("phases %v aborted %v, want lower then an aborted opt", rec.phases, rec.aborted)
	}
}

// TestHooksObserverComposition: nothing attached composes to a nil
// observer and a lone caller's observer to itself (the unobserved and the
// guard-only fast paths); the fan-out is a remark sink exactly when a
// collector is attached.
func TestHooksObserverComposition(t *testing.T) {
	if obs := (&Hooks{}).observer(); obs != nil {
		t.Errorf("zero Hooks composed to %T, want nil", obs)
	}
	guard := funcObserver(func(*ir.Module, string, int) {})
	if _, ok := (&Hooks{Observer: guard}).observer().(funcObserver); !ok {
		t.Error("a lone caller's observer must be attached as is")
	}
	tr := trace.NewRecorder(nil, instrument.IsMarker)
	if _, sink := (&Hooks{Observer: guard, Trace: tr}).observer().(opt.RemarkSink); sink {
		t.Error("a compile without a collector switched remark emission on")
	}
	coll := remark.NewCollector(instrument.IsMarker)
	if _, sink := (&Hooks{Observer: guard, Remarks: coll}).observer().(opt.RemarkSink); !sink {
		t.Error("attaching a collector did not switch remark emission on")
	}
}
