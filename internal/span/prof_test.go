package span

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// skewedTrace records a synthetic campaign where one seed's unit dominates
// the wall clock: worker 1 spends ~9.5s on seed 1's -O3 unit while worker 2
// finishes two small units early and idles, and the sequencer stalls
// holding worker 2's completed slots behind the slow seed.
func skewedTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	r := New(&buf)
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	r.Emit(Span{Name: "llvm-sim -O3", Cat: CatUnit, TID: 1, Start: at(0), Dur: ms(9500),
		Args: []Arg{Int64("seed", 1), Bool("ok", true)}})
	r.Emit(Span{Name: "gcc-sim -O1", Cat: CatUnit, TID: 2, Start: at(0), Dur: ms(200),
		Args: []Arg{Int64("seed", 2), Bool("ok", true)}})
	r.Emit(Span{Name: "gcc-sim -O2", Cat: CatUnit, TID: 2, Start: at(200), Dur: ms(100),
		Args: []Arg{Int64("seed", 2), Bool("ok", false)}})
	r.Emit(Span{Name: "busy", Cat: CatSched, TID: 1, Start: at(0), Dur: ms(9500)})
	r.Emit(Span{Name: "busy", Cat: CatSched, TID: 2, Start: at(0), Dur: ms(300)})
	r.Emit(Span{Name: "idle", Cat: CatSched, TID: 2, Start: at(300), Dur: ms(9200)})
	r.Emit(Span{Name: "queue-wait", Cat: CatSched, TID: 2, Start: at(190), Dur: ms(10)})
	r.Emit(Span{Name: "seq-stall", Cat: CatSched, TID: 0, Start: at(300), Dur: ms(9200),
		Args: []Arg{Int("slot", 5)}})
	if err := r.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeSkewedCriticalPath(t *testing.T) {
	p := Analyze(skewedTrace(t), 0)
	if p.Deterministic {
		t.Fatal("wall trace analyzed as deterministic")
	}
	if len(p.CriticalPath) == 0 {
		t.Fatal("no critical path")
	}
	top := p.CriticalPath[0]
	if !strings.Contains(top.Label, "seed=1") || !strings.Contains(top.Label, "llvm-sim -O3") {
		t.Fatalf("critical path head = %q, want the slow seed's unit", top.Label)
	}
	// The acceptance bar: the deliberately slow seed's unit span carries at
	// least 90% of the trace's wall clock.
	if top.Share < 0.9 {
		t.Fatalf("slow unit's wall share = %.3f, want >= 0.9", top.Share)
	}
	if p.SeqStall.Count != 1 || p.SeqStall.TotalUs < 9_000_000 {
		t.Fatalf("sequencer stall not reported: %+v", p.SeqStall)
	}
	if p.QueueWait.Count != 1 || p.QueueWait.MaxUs < 9_000 {
		t.Fatalf("queue wait not reported: %+v", p.QueueWait)
	}
	if len(p.Workers) != 2 {
		t.Fatalf("workers = %+v, want 2 rows", p.Workers)
	}
	if w := p.Workers[0]; w.TID != 1 || w.Util < 0.9 {
		t.Fatalf("worker 1 utilization = %+v, want ~1.0", w)
	}
	if w := p.Workers[1]; w.TID != 2 || w.Util > 0.1 {
		t.Fatalf("worker 2 utilization = %+v, want ~0.03", w)
	}
	// Units sort slowest-first in wall mode.
	if len(p.Units) != 3 || p.Units[0].Seed != "1" || !p.Units[0].Ok || p.Units[2].Ok {
		t.Fatalf("units = %+v", p.Units)
	}
}

func TestAnalyzeTopKAndDeterministic(t *testing.T) {
	p := Analyze(skewedTrace(t), 2)
	if len(p.Units) != 2 {
		t.Fatalf("topK ignored: %d units", len(p.Units))
	}

	var buf bytes.Buffer
	r := NewDeterministic(&buf)
	now := time.Now()
	r.Emit(Span{Name: "gcc-sim -O0", Cat: CatUnit, TID: 1, Start: now, Dur: time.Second,
		Args: []Arg{Int64("seed", 3)}})
	r.Emit(Span{Name: "gcc-sim -O1", Cat: CatUnit, TID: 2, Start: now, Dur: 2 * time.Second,
		Args: []Arg{Int64("seed", 3)}})
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dp := Analyze(tr, 0)
	if !dp.Deterministic {
		t.Fatal("deterministic flag lost")
	}
	if len(dp.CriticalPath) != 0 || len(dp.Workers) != 0 || dp.WallUs != 0 {
		t.Fatalf("deterministic profile must carry no wall tables: %+v", dp)
	}
	// File (slot) order, not cost order, and costs redacted to zero.
	if len(dp.Units) != 2 || dp.Units[0].Config != "gcc-sim -O0" || dp.Units[0].Us != 0 {
		t.Fatalf("deterministic units = %+v", dp.Units)
	}
}
