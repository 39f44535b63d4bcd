package ir_test

import (
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/pipeline"
)

// BenchmarkVerify checks the seed-4242 program's optimized module at every
// default configuration (both personalities at every level) once per
// iteration — the verification each compile ends its pipeline with.
func BenchmarkVerify(b *testing.B) {
	ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(4242)), instrument.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var mods []*ir.Module
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, lvl := range pipeline.Levels {
			m, err := lower.Lower(ins.Prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := pipeline.New(p, lvl).CompileObserved(m, nil); err != nil {
				b.Fatal(err)
			}
			mods = append(mods, m)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if err := ir.Verify(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
