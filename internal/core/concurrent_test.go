package core

import (
	"sync"
	"testing"

	"dcelens/internal/pipeline"
)

// TestConcurrentCompile compiles one program under every default
// configuration from four goroutines at once and checks each unit's
// assembly against a serial compile. Every compile in a process shares
// the optimizer's pooled pass scratch, as the campaign's workers do.
func TestConcurrentCompile(t *testing.T) {
	ins := generated(t, 7)
	var cfgs []*pipeline.Config
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, lvl := range pipeline.Levels {
			cfgs = append(cfgs, pipeline.New(p, lvl))
		}
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		c, err := Compile(ins, cfg, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		want[i] = c.Asm
	}

	const workers = 4
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]string, len(cfgs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the configs from a different start, so
			// different pipelines run side by side.
			for k := range cfgs {
				i := (k + w*len(cfgs)/workers) % len(cfgs)
				c, err := Compile(ins, cfgs[i], Hooks{})
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = c.Asm
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, cfg := range cfgs {
			if got[w][i] != want[i] {
				t.Errorf("worker %d, %s: assembly differs from the serial compile", w, cfg.Name())
			}
		}
	}
}
