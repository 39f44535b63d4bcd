package remark_test

import (
	"testing"
	"time"

	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/sema"
	"dcelens/internal/trace"
)

// logHook logs every event it receives under its tag. It implements
// opt.Observer, core.Recorder and opt.RemarkSink, so it can sit in any
// hook slot and reveal a remark that leaks out of the collector's.
type logHook struct {
	tag     string
	log     *[]string
	onPass  func()
	remarks int
}

func (h *logHook) BeginPipeline(*ir.Module) { *h.log = append(*h.log, h.tag+":begin") }

func (h *logHook) AfterPass(_ *ir.Module, pass string, _, _ int, _ opt.PassStats) {
	if h.onPass != nil {
		h.onPass()
	}
	*h.log = append(*h.log, h.tag+":"+pass)
}

func (h *logHook) Phase(name string, _ time.Time, _ time.Duration, _ bool) {
	*h.log = append(*h.log, h.tag+":phase:"+name)
}

func (h *logHook) Remark(opt.Remark) { h.remarks++ }

// fanoutSrc keeps DCEMarker0 alive at -O1: g has a store of a different
// value than its initializer, so no global propagation folds the branch.
const fanoutSrc = `
void DCEMarker0(void);
int g;
void set(int v) { g = v; }
int main(void) {
  int x = 1 + 2;
  set(1);
  if (g) {
    DCEMarker0();
  }
  return x - 3;
}`

// TestObserverFanOut compiles one program with every hook attached — trace
// recorder, caller's observer, recorder, remark collector — and checks
// that each consumer sees exactly its own channel:
//
//   - the collector receives remarks (including dce's side-effects anchor
//     for the surviving marker), while the caller's observer and the
//     recorder, although both are remark sinks, receive none;
//   - the trace and the recorder still see every pass instance;
//   - each pass reaches the trace, then the caller's observer, then the
//     recorder; phases reach the recorder around the pipeline.
func TestObserverFanOut(t *testing.T) {
	prog, err := parser.Parse(fanoutSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	ins := &instrument.Program{Prog: prog, Markers: []instrument.Marker{{ID: 0, Name: "DCEMarker0"}}}

	var log []string
	tr := trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker)
	guard := &logHook{tag: "guard", log: &log}
	rec := &logHook{tag: "recorder", log: &log}
	coll := remark.NewCollector(instrument.IsMarker)
	guardPasses := 0
	guard.onPass = func() {
		guardPasses++
		if n := len(tr.Profile().Passes); n != guardPasses {
			t.Errorf("guard saw pass %d before the trace recorded it (trace has %d)", guardPasses, n)
		}
	}
	comp, err := core.Compile(ins, pipeline.New(pipeline.GCC, pipeline.O1),
		core.Hooks{Observer: guard, Trace: tr, Remarks: coll, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Alive["DCEMarker0"] {
		t.Fatal("fixture marker eliminated; the chain check needs a survivor")
	}

	if coll.Len() == 0 {
		t.Fatal("attached collector saw no remarks")
	}
	chain := coll.Profile().Chain("DCEMarker0")
	if len(chain) == 0 {
		t.Fatal("surviving marker has no chain")
	}
	if chain[0].Pass != "dce" || chain[0].Reason != string(opt.ReasonSideEffects) {
		t.Errorf("chain anchor = %+v, want dce/side-effects", chain[0])
	}
	if guard.remarks != 0 || rec.remarks != 0 {
		t.Errorf("remarks leaked out of the collector: observer %d, recorder %d", guard.remarks, rec.remarks)
	}

	passes := len(tr.Profile().Passes)
	if passes == 0 || guardPasses != passes {
		t.Fatalf("trace recorded %d instances, guard saw %d", passes, guardPasses)
	}
	// lower phase, the begin pair, a guard/recorder pair per instance, then
	// the opt and codegen phases.
	want := []string{"recorder:phase:lower", "guard:begin", "recorder:begin"}
	for _, e := range tr.Profile().Passes {
		want = append(want, "guard:"+e.Ref.Pass, "recorder:"+e.Ref.Pass)
	}
	want = append(want, "recorder:phase:opt", "recorder:phase:codegen")
	if len(log) != len(want) {
		t.Fatalf("event log has %d entries, want %d:\n%v", len(log), len(want), log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("event %d = %q, want %q\nlog: %v", i, log[i], want[i], log)
		}
	}
}
