package core

import (
	"os"
	"path/filepath"
	"testing"

	"dcelens/internal/instrument"
	"dcelens/internal/parser"
	"dcelens/internal/pipeline"
	"dcelens/internal/sema"
)

// loadListing parses a testdata file and adopts its explicit markers.
func loadListing(t *testing.T, name string) *instrument.Program {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ins := &instrument.Program{Prog: prog}
	for _, f := range prog.Funcs() {
		if f.Body == nil && instrument.IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, instrument.Marker{ID: len(ins.Markers), Name: f.Name})
		}
	}
	return ins
}

// TestListingFiles drives every testdata listing end to end, asserting that
// exactly one compiler misses the marker in the direction the paper
// documents (for 6a, both miss).
func TestListingFiles(t *testing.T) {
	expectations := map[string][2]bool{ // {gcc eliminates, llvm eliminates}
		"listing3.c":  {true, false},
		"listing4a.c": {false, true},
		"listing6a.c": {false, false},
		"listing9f.c": {false, true},
		"listing9e.c": {false, true},
	}
	for name, want := range expectations {
		t.Run(name, func(t *testing.T) {
			ins := loadListing(t, name)
			if len(ins.Markers) != 1 {
				t.Fatalf("want 1 marker, got %d", len(ins.Markers))
			}
			marker := ins.Markers[0].Name
			truth, err := GroundTruth(ins)
			if err != nil {
				t.Fatal(err)
			}
			if truth.Alive[marker] {
				t.Fatal("listing marker must be dead")
			}
			gcc, err := Compile(ins, pipeline.New(pipeline.GCC, pipeline.O3), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			llvm, err := Compile(ins, pipeline.New(pipeline.LLVM, pipeline.O3), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if err := gcc.VerifyAgainstTruth(truth); err != nil {
				t.Fatal(err)
			}
			if err := llvm.VerifyAgainstTruth(truth); err != nil {
				t.Fatal(err)
			}
			if got := !gcc.Alive[marker]; got != want[0] {
				t.Errorf("gcc-sim eliminates = %v, want %v", got, want[0])
			}
			if got := !llvm.Alive[marker]; got != want[1] {
				t.Errorf("llvm-sim eliminates = %v, want %v", got, want[1])
			}
		})
	}
}
