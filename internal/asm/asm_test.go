package asm

import (
	"strings"
	"testing"

	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/parser"
	"dcelens/internal/sema"
)

func lowerSource(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	m, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func emit(t *testing.T, src string) string {
	t.Helper()
	return Emit(lowerSource(t, src))
}

func TestEmitStructure(t *testing.T) {
	text := emit(t, `
void DCEMarker0(void);
static int g = 5;
int arr[3] = {1, 2, 3};
static int *p = &arr[1];
int main(void) {
  DCEMarker0();
  return g;
}`)
	for _, want := range []string{
		"\t.text", "\t.data",
		".globl main", "main:",
		"call DCEMarker0",
		"g:", "\t.long 5",
		"arr:", "\t.long 1",
		"p:", "\t.quad arr+4", // element offset 1 * 4 bytes
		"ret",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in assembly:\n%s", want, text)
		}
	}
	// Internal symbols must not be exported.
	if strings.Contains(text, ".globl g") {
		t.Error("static global exported")
	}
	if !strings.Contains(text, ".globl arr") {
		t.Error("external global not exported")
	}
}

func TestCallsScan(t *testing.T) {
	text := emit(t, `
void DCEMarker0(void);
void DCEMarker1(void);
static void helper(void) { DCEMarker1(); }
int main(void) {
  DCEMarker0();
  DCEMarker0();
  helper();
  return 0;
}`)
	calls := Calls(text)
	if calls["DCEMarker0"] != 2 {
		t.Errorf("DCEMarker0 counted %d times, want 2", calls["DCEMarker0"])
	}
	if calls["DCEMarker1"] != 1 || calls["helper"] != 1 {
		t.Errorf("calls: %v", calls)
	}
	markers := SurvivingMarkers(text, func(n string) bool { return strings.HasPrefix(n, "DCEMarker") })
	if len(markers) != 2 {
		t.Errorf("markers: %v", markers)
	}
}

func TestUnreachableBlocksNotEmitted(t *testing.T) {
	// Code after return is unreachable; the backend must not emit it even
	// without any optimization.
	text := emit(t, `
void DCEMarker0(void);
int main(void) {
  return 0;
  DCEMarker0();
}`)
	if strings.Contains(text, "call DCEMarker0") {
		t.Errorf("unreachable marker emitted:\n%s", text)
	}
}

func TestMeasure(t *testing.T) {
	text := emit(t, `
static int g;
static int h;
int main(void) {
  g = h + 1;
  if (g) {
    g = 2;
  }
  return 0;
}`)
	m := Measure(text)
	if m.Instructions == 0 || m.Loads == 0 || m.Stores == 0 || m.Branches == 0 {
		t.Errorf("implausible metrics: %+v\n%s", m, text)
	}
}
