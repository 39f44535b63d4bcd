package span

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRecorderHeaderAndLines(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Emit(Span{Name: "unit", Cat: CatUnit, TID: 3, Start: time.Now(), Dur: time.Millisecond,
		Args: []Arg{Int64("seed", 7), Bool("ok", true)}})
	if err := r.Journal().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("missing array opener:\n%s", out)
	}
	if strings.Contains(out, "]") {
		t.Fatalf("trace must stay unterminated (appendable):\n%s", out)
	}
	if !strings.Contains(out, `"cat":"__metadata"`) || !strings.Contains(out, `"mode":"wall"`) {
		t.Fatalf("missing wall metadata record:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"seed":"7","ok":"true"}`) {
		t.Fatalf("args not rendered in insertion order:\n%s", out)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Deterministic {
		t.Fatal("wall trace parsed as deterministic")
	}
	if len(tr.Events) != 1 || tr.Events[0].Name != "unit" || tr.Events[0].TID != 3 {
		t.Fatalf("round trip lost the span: %+v", tr.Events)
	}
}

func TestDeterministicRedaction(t *testing.T) {
	var buf bytes.Buffer
	r := NewDeterministic(&buf)
	r.Emit(Span{Name: "busy", Cat: CatSched, TID: 1, Start: time.Now(), Dur: time.Second})
	r.Emit(Span{Name: "campaign", Cat: CatJob, TID: 0, Start: time.Now(), Dur: time.Second})
	r.Emit(Span{Name: "gcc-sim -O2", Cat: CatUnit, TID: 5, Start: time.Now(), Dur: time.Second,
		Args: []Arg{Int64("seed", 1)}})
	if _, head := r.Journal().Since(0); head != 1 {
		t.Fatalf("sched and job spans must be dropped: seq = %d, want 1", head)
	}
	out := buf.String()
	if !strings.Contains(out, `"mode":"deterministic"`) {
		t.Fatalf("missing deterministic metadata:\n%s", out)
	}
	if !strings.Contains(out, `"ts":0,"dur":0,"pid":1,"tid":0`) {
		t.Fatalf("wall fields not redacted:\n%s", out)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !tr.Deterministic || len(tr.Events) != 1 {
		t.Fatalf("deterministic=%v events=%d, want true/1", tr.Deterministic, len(tr.Events))
	}
}

func TestRenderEscaping(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Emit(Span{Name: "we\"ird\\name\x01", Cat: CatPhase})
	if _, err := Parse(buf.Bytes()); err != nil {
		t.Fatalf("escaped span does not re-parse: %v\n%s", err, buf.String())
	}
}

func TestTailRing(t *testing.T) {
	r := New(nil)
	r.Journal().KeepTail(3)
	for i := 0; i < 5; i++ {
		r.Emit(Span{Name: "p", Cat: CatPhase})
	}
	got, head := r.Journal().Since(0)
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 || head != 5 {
		t.Fatalf("tail = %+v at head %d, want seqs 3..5", got, head)
	}
	if strings.HasSuffix(got[0].Line, ",") {
		t.Fatalf("tail line %q keeps the file's trailing comma", got[0].Line)
	}
	if got, _ := r.Journal().Since(4); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("Since(4) = %+v, want just seq 5", got)
	}
	if got, _ := r.Journal().Since(5); len(got) != 0 {
		t.Fatalf("Since(5) = %+v, want empty", got)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(Span{Name: "x", Cat: CatUnit})
	r.Journal().KeepTail(4)
	if tail, head := r.Journal().Since(0); head != 0 || tail != nil || r.Deterministic() {
		t.Fatal("nil recorder must be inert")
	}
	if err := r.Journal().Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestOpenResumeAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r1, err := Open(path, false, true)
	if err != nil {
		t.Fatal(err)
	}
	r1.Emit(Span{Name: "a", Cat: CatUnit})
	if err := r1.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)

	r2, err := Open(path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	r2.Emit(Span{Name: "b", Cat: CatUnit})
	if err := r2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	both, _ := os.ReadFile(path)
	if !bytes.HasPrefix(both, first) {
		t.Fatalf("resume rewrote the existing prefix:\n%s", both)
	}
	if c := bytes.Count(both, []byte("__metadata")); c != 1 {
		t.Fatalf("resume must not write a second header (got %d)", c)
	}
	tr, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile after resume: %v", err)
	}
	if len(tr.Events) != 2 || tr.Events[0].Name != "a" || tr.Events[1].Name != "b" {
		t.Fatalf("appended trace events = %+v", tr.Events)
	}

	// Resuming a missing file still writes the header.
	fresh := filepath.Join(t.TempDir(), "missing.json")
	r3, err := Open(fresh, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(fresh)
	if !bytes.Contains(b, []byte("__metadata")) {
		t.Fatalf("resume of an empty file must write the header:\n%s", b)
	}
}

// TestOpenResumeTornTail: a trace killed mid-write and then resumed stays
// parseable: the torn span is cut, and the resumed span follows the
// earlier complete ones.
func TestOpenResumeTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r, err := Open(path, false, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Emit(Span{Name: "a", Cat: CatUnit})
	r.Emit(Span{Name: "b", Cat: CatUnit})
	if err := r.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"name":"c","cat":"unit","ph":"X","ts":`) // killed here
	f.Close()

	r, err = Open(path, true, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Emit(Span{Name: "d", Cat: CatUnit})
	if err := r.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile after a torn resume: %v", err)
	}
	var names []string
	for _, e := range tr.Events {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "a,b,d" {
		t.Fatalf("resumed trace spans = %v, want a,b,d", names)
	}
}

func TestParseAcceptsClosedArray(t *testing.T) {
	text := "[\n" +
		`{"name":"u","cat":"unit","ph":"X","ts":1,"dur":2,"pid":1,"tid":1},` + "\n" +
		`{"name":"v","cat":"unit","ph":"X","ts":3,"dur":4,"pid":1,"tid":2}` + "\n]"
	tr, err := Parse([]byte(text))
	if err != nil {
		t.Fatalf("Parse(closed array): %v", err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(tr.Events))
	}
}

func TestCloseReturnsWriteError(t *testing.T) {
	r := New(failWriter{})
	r.Emit(Span{Name: "u", Cat: CatUnit})
	if err := r.Journal().Close(); err == nil {
		t.Fatal("Close must surface the swallowed write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }
