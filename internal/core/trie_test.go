package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/trace"
)

// defaultConfigs returns the ten configurations of a default campaign, in
// its unit order.
func defaultConfigs() []*pipeline.Config {
	var cfgs []*pipeline.Config
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, lvl := range pipeline.Levels {
			cfgs = append(cfgs, pipeline.New(p, lvl))
		}
	}
	return cfgs
}

// callLog records every call a compile's consumers receive, durations
// left out: the observer's pass events and the recorder's phases.
type callLog struct{ calls []string }

func (l *callLog) BeginPipeline(*ir.Module) { l.calls = append(l.calls, "begin") }

func (l *callLog) AfterPass(_ *ir.Module, pass string, idx, iter int, st opt.PassStats) {
	l.calls = append(l.calls, fmt.Sprintf("%s#%d.%d changed=%t visited=%d skipped=%d applied=%d",
		pass, iter, idx, st.Changed, st.FuncsVisited, st.FuncsSkipped, st.Applied))
}

func (l *callLog) Phase(name string, _ time.Time, _ time.Duration, aborted bool) {
	l.calls = append(l.calls, fmt.Sprintf("phase %s aborted=%t", name, aborted))
}

// observed is one compile with every consumer attached.
type observed struct {
	comp     *Compilation
	trace    *trace.Profile
	remarks  *remark.Profile
	observer []string
	recorder []string
}

func observedHooks(ins *instrument.Program) (Hooks, *callLog, *callLog) {
	obs, rec := &callLog{}, &callLog{}
	return Hooks{
		Observer: obs,
		Recorder: rec,
		Trace:    trace.NewRecorder(ins.MarkerNames(), instrument.IsMarker),
		Remarks:  remark.NewCollector(instrument.IsMarker),
	}, obs, rec
}

func finish(t *testing.T, name string, h Hooks, obs, rec *callLog, comp *Compilation, err error) observed {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return observed{comp, h.Trace.Profile(), h.Remarks.Profile(), obs.calls, rec.calls}
}

// withoutDurations returns the trace's pass entries with their wall times
// zeroed.
func withoutDurations(p *trace.Profile) []trace.PassProfile {
	out := append([]trace.PassProfile(nil), p.Passes...)
	for i := range out {
		out[i].Duration = 0
	}
	return out
}

// identitySeeds is how many seeds TestTrieIdentity compiles; a build with
// the race detector checks fewer (race_test.go), as its concurrency is
// TestConcurrentTrie's to cover.
var identitySeeds int64 = 40

// TestTrieIdentity: every configuration compiled through its seed's trie
// gives the assembly a compile of its own gives and, with every consumer
// attached, the same provenance, per-pass trace entries (wall times
// aside), remark profile, and the same observer and recorder calls in the
// same order.
func TestTrieIdentity(t *testing.T) {
	cfgs := defaultConfigs()
	for seed := int64(1); seed <= identitySeeds; seed++ {
		ins := generated(t, seed)
		bare, err := NewTrie(ins, lowered(t, ins), cfgs, false, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hooked, err := NewTrie(ins, lowered(t, ins), cfgs, true, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, cfg := range cfgs {
			name := fmt.Sprintf("seed %d, %s", seed, cfg.Name())
			alone, err := Compile(ins, cfg, Hooks{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shared, err := bare.Paused[i].Compile(Hooks{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if shared.Asm != alone.Asm {
				t.Errorf("%s: shared assembly differs from a compile of its own", name)
			}

			h, obs, rec := observedHooks(ins)
			comp, err := Compile(ins, cfg, h)
			want := finish(t, name, h, obs, rec, comp, err)
			h, obs, rec = observedHooks(ins)
			comp, err = hooked.Paused[i].Compile(h)
			got := finish(t, name, h, obs, rec, comp, err)
			switch {
			case got.comp.Asm != want.comp.Asm:
				t.Errorf("%s: traced shared assembly differs", name)
			case !reflect.DeepEqual(got.trace.Provenance(), want.trace.Provenance()):
				t.Errorf("%s: provenance differs", name)
			case !reflect.DeepEqual(withoutDurations(got.trace), withoutDurations(want.trace)):
				t.Errorf("%s: per-pass trace entries differ", name)
			case !reflect.DeepEqual(got.trace.InitialSurviving, want.trace.InitialSurviving) ||
				!reflect.DeepEqual(got.trace.FinalSurviving, want.trace.FinalSurviving):
				t.Errorf("%s: surviving-marker sets differ", name)
			case !reflect.DeepEqual(got.remarks, want.remarks):
				t.Errorf("%s: remark profile differs", name)
			case !reflect.DeepEqual(got.observer, want.observer):
				t.Errorf("%s: observer calls differ:\n got %v\nwant %v", name, got.observer, want.observer)
			case !reflect.DeepEqual(got.recorder, want.recorder):
				t.Errorf("%s: recorder calls differ:\n got %v\nwant %v", name, got.recorder, want.recorder)
			}
		}
	}
}

// TestTrieShape pins the work a seed's trie shares for the ten default
// configurations: one lowering; compact and mem2reg for the eight
// optimizing configurations, ipsccp, sccp, instcombine and simplifycfg for
// -O1/-Os/-O2 of each personality, and both -O0 schedules whole (12
// instances run once); and 9 module copies, one per configuration but the
// one that keeps the lowered module.
func TestTrieShape(t *testing.T) {
	cfgs := defaultConfigs()
	for seed := int64(1); seed <= 20; seed++ {
		ins := generated(t, seed)
		tr, err := NewTrie(ins, lowered(t, ins), cfgs, false, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lowerings := map[*Lowering]bool{}
		for _, p := range tr.Paused {
			lowerings[p.lower] = true
		}
		if len(lowerings) != 1 || tr.Shared != 12 || tr.Clones != 9 {
			t.Errorf("seed %d: %d lowerings, %d shared instances, %d clones; want 1, 12, 9",
				seed, len(lowerings), tr.Shared, tr.Clones)
		}
		modules := map[*ir.Module]bool{}
		for i, p := range tr.Paused {
			comp, err := p.Compile(Hooks{})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, cfgs[i].Name(), err)
			}
			modules[comp.Module] = true
		}
		if len(modules) != len(cfgs) {
			t.Errorf("seed %d: %d configurations share %d modules", seed, len(cfgs), len(modules))
		}
	}
}

// TestTrieRecordedTooLittle: a compile whose hooks attach a consumer the
// shared work recorded nothing for compiles alone, so that consumer still
// sees a whole compile.
func TestTrieRecordedTooLittle(t *testing.T) {
	ins := generated(t, 1)
	cfgs := defaultConfigs()
	tr, err := NewTrie(ins, lowered(t, ins), cfgs, false, false)
	if err != nil {
		t.Fatal(err)
	}
	const gccO1 = 1
	h, obs, rec := observedHooks(ins)
	comp, err := tr.Paused[gccO1].Compile(h)
	got := finish(t, "shared", h, obs, rec, comp, err)
	h, obs, rec = observedHooks(ins)
	comp, err = Compile(ins, cfgs[gccO1], h)
	want := finish(t, "alone", h, obs, rec, comp, err)
	if !reflect.DeepEqual(withoutDurations(got.trace), withoutDurations(want.trace)) ||
		!reflect.DeepEqual(got.remarks, want.remarks) || !reflect.DeepEqual(got.observer, want.observer) {
		t.Errorf("a compile the trie recorded nothing for sees a different compile than one alone")
	}
}

// TestTrieSharedPanic: a pass that panics while configurations share it
// makes NewTrie return an error instead of a trie, so that every
// configuration compiles, and fails, alone.
func TestTrieSharedPanic(t *testing.T) {
	saved := opt.InstCombine
	defer func() { opt.InstCombine = saved }()
	opt.InstCombine.Fn = func(*ir.Func, opt.Options) bool { panic("instcombine broke") }
	cfgs := []*pipeline.Config{pipeline.New(pipeline.GCC, pipeline.O0), pipeline.New(pipeline.LLVM, pipeline.O0)}
	ins := generated(t, 1)
	tr, err := NewTrie(ins, lowered(t, ins), cfgs, false, false)
	if tr != nil || err == nil || !strings.Contains(err.Error(), "instcombine broke") {
		t.Fatalf("NewTrie = %v, %v; want no trie and the panic as an error", tr, err)
	}
}

// TestConcurrentTrie runs the seed entry from four goroutines at once, as
// a parallel campaign's workers do, and checks every configuration's
// assembly against a serial compile.
func TestConcurrentTrie(t *testing.T) {
	ins := generated(t, 7)
	cfgs := defaultConfigs()
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		c, err := Compile(ins, cfg, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		want[i] = c.Asm
	}
	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lw, err := Lower(ins)
			if err != nil {
				errs[w] = err
				return
			}
			tr, err := NewTrie(ins, lw, cfgs, w%2 == 1, w%2 == 1)
			if err != nil {
				errs[w] = err
				return
			}
			// The units of one trie run side by side too.
			var uwg sync.WaitGroup
			got := make([]string, len(cfgs))
			for i := range cfgs {
				uwg.Add(1)
				go func(i int) {
					defer uwg.Done()
					var h Hooks
					if w%2 == 1 {
						h, _, _ = observedHooks(ins)
					}
					if c, err := tr.Paused[i].Compile(h); err == nil {
						got[i] = c.Asm
					}
				}(i)
			}
			uwg.Wait()
			for i, cfg := range cfgs {
				if got[i] != want[i] {
					errs[w] = fmt.Errorf("%s: assembly differs from the serial compile", cfg.Name())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// TestSharedLowering: the marker graph a seed derives from its one
// lowering equals BuildMarkerCFG's, and deriving it leaves the module the
// seed's trie starts from as it was.
func TestSharedLowering(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		ins := generated(t, seed)
		lw := lowered(t, ins)
		before := lw.Module().String()
		got := MarkerCFGOf(lw.Module())
		if after := lw.Module().String(); after != before {
			t.Fatalf("seed %d: deriving the marker graph changed the module", seed)
		}
		want, err := BuildMarkerCFG(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: marker graph of the shared lowering differs from BuildMarkerCFG's", seed)
		}
	}
}
