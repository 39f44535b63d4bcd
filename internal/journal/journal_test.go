package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// record renders the test record format: {"seq":N} plus a payload.
func record(payload string) func(int64) ([]byte, error) {
	return func(seq int64) ([]byte, error) {
		return fmt.Appendf(nil, `{"seq":%d,"p":%q}`, seq, payload), nil
	}
}

func writeFile(t testing.TB, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenCutsTornTail: resuming keeps every complete line and drops the
// bytes after the last newline, whatever the file holds; a fresh open
// truncates.
func TestOpenCutsTornTail(t *testing.T) {
	long := strings.Repeat("x", 10<<10) // spans several read windows
	for _, tc := range []struct {
		name, data, kept, last string
		hasLast                bool
	}{
		{name: "empty"},
		{name: "only torn", data: `{"seq":1`},
		{name: "complete", data: "a\nb\n", kept: "a\nb\n", last: "b", hasLast: true},
		{name: "torn after complete", data: "a\nb\nc", kept: "a\nb\n", last: "b", hasLast: true},
		{name: "single line", data: "a\n", kept: "a\n", last: "a", hasLast: true},
		{name: "empty last line", data: "a\n\n", kept: "a\n\n", last: "", hasLast: true},
		{name: "long last line", data: "a\n" + long + "\n" + long, kept: "a\n" + long + "\n", last: long, hasLast: true},
		{name: "long torn only", data: long},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, tc.data)
			j, last, err := Open(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if (last != nil) != tc.hasLast || string(last) != tc.last {
				t.Errorf("last = %q (nil %v), want %q", last, last == nil, tc.last)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, _ := os.ReadFile(path)
			if string(got) != tc.kept {
				t.Errorf("kept %q, want %q", got, tc.kept)
			}
		})
	}

	path := writeFile(t, "a\nb\n")
	j, last, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got, _ := os.ReadFile(path); len(got) != 0 || last != nil {
		t.Fatalf("fresh open kept %q (last %q)", got, last)
	}
}

// TestAppendSuffixAndTail: the seq reaches render, the suffix reaches the
// file but not the tail, and the tail keeps the newest records.
func TestAppendSuffixAndTail(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	j.Suffix = ","
	j.SetSeq(10)
	j.KeepTail(2)
	j.WriteHeader([]byte("[\n"))
	for _, p := range []string{"a", "b", "c"} {
		if err := j.Append(record(p)); err != nil {
			t.Fatal(err)
		}
	}
	want := "[\n" + `{"seq":11,"p":"a"},` + "\n" + `{"seq":12,"p":"b"},` + "\n" + `{"seq":13,"p":"c"},` + "\n"
	if buf.String() != want {
		t.Fatalf("file:\n%s\nwant:\n%s", buf.String(), want)
	}
	tail, head := j.Since(0)
	if head != 13 || len(tail) != 2 || tail[0] != (Entry{12, `{"seq":12,"p":"b"}`}) || tail[1].Seq != 13 {
		t.Fatalf("Since(0) = %+v at head %d", tail, head)
	}
	if tail, head := j.Since(13); tail != nil || head != 13 {
		t.Fatalf("caught-up Since = %+v at head %d", tail, head)
	}

	var nilJ *Journal
	nilJ.KeepTail(4)
	nilJ.SetSeq(3)
	nilJ.WriteHeader([]byte("x"))
	if err := nilJ.Append(record("x")); err != nil {
		t.Fatal(err)
	}
	if tail, head := nilJ.Since(0); tail != nil || head != 0 || nilJ.Close() != nil {
		t.Fatal("nil journal must be inert")
	}
}

// TestTailGrowsThenWraps: a tail holds nothing until records arrive, grows
// with them up to its size, then wraps, and Since answers exactly the
// newest size records above since at every step: below, at and past the
// growth boundary, and over two wraparounds. KeepTail(0) after appends
// releases the tail and keeps the seq.
func TestTailGrowsThenWraps(t *testing.T) {
	big := New(nil)
	big.KeepTail(TailSize)
	big.Append(record("a"))
	if c := cap(big.ring); c >= TailSize {
		t.Fatalf("one record reserved %d tail entries, want it to grow on demand", c)
	}

	const size = 4
	j := New(nil)
	j.KeepTail(size)
	for n := int64(0); n <= 3*size; n++ {
		if n > 0 {
			j.Append(record(fmt.Sprint(n)))
		}
		for since := int64(0); since <= n; since++ {
			tail, head := j.Since(since)
			first := max(since, n-size) + 1
			if head != n || int64(len(tail)) != n-first+1 {
				t.Fatalf("after %d records, Since(%d) = %d entries at head %d, want seqs %d..%d", n, since, len(tail), head, first, n)
			}
			for i, e := range tail {
				if want := first + int64(i); e.Seq != want || e.Line != fmt.Sprintf(`{"seq":%d,"p":"%d"}`, want, want) {
					t.Fatalf("after %d records, Since(%d)[%d] = %+v, want seq %d", n, since, i, e, want)
				}
			}
		}
	}
	if len(j.ring) != size {
		t.Fatalf("tail holds %d entries, want %d", len(j.ring), size)
	}

	j.KeepTail(0)
	if tail, head := j.Since(0); tail != nil || head != 3*size || j.ring != nil {
		t.Fatalf("released tail: Since(0) = %+v at head %d, want nothing at %d", tail, head, 3*size)
	}
	j.Append(record("after"))
	if tail, head := j.Since(0); tail != nil || head != 3*size+1 {
		t.Fatalf("append after release: Since(0) = %+v at head %d, want nothing at %d", tail, head, 3*size+1)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestWriteErrorLatched: the first write error stops the journal and is
// what Close returns; a render error latches the same way.
func TestWriteErrorLatched(t *testing.T) {
	j := New(&failWriter{n: 1})
	j.KeepTail(4)
	j.Append(record("a"))
	if err := j.Append(record("b")); err == nil {
		t.Fatal("failed write not reported")
	}
	j.Append(record("c"))
	if _, head := j.Since(0); head != 2 {
		t.Fatalf("head = %d, want 2 (nothing recorded after the error)", head)
	}
	if err := j.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the latched write error", err)
	}

	j = New(nil)
	boom := errors.New("unencodable")
	j.Append(func(int64) ([]byte, error) { return nil, boom })
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the render error", err)
	}
}

// TestConcurrentAppendAndTail: a journal resumed from a file with a torn
// final line keeps its sequence contract under concurrent writers and tail
// readers. Every tail read is ordered and never past the head it reports,
// every record lands exactly once, and the file holds no torn fragment.
func TestConcurrentAppendAndTail(t *testing.T) {
	path := writeFile(t, `{"seq":1,"p":"x"}`+"\n"+`{"seq":2,"p":"x"}`+"\n"+`{"seq":3,"p":"to`)
	j, last, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Seq int64 `json:"seq"`
	}
	if err := json.Unmarshal(last, &rec); err != nil || rec.Seq != 2 {
		t.Fatalf("last = %q, want seq 2 (torn line cut)", last)
	}
	j.SetSeq(rec.Seq)
	j.KeepTail(64)

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(record(fmt.Sprint(w, i)))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tail, head := j.Since(2)
				var prev int64
				for _, e := range tail {
					if e.Seq <= prev || e.Seq > head {
						t.Errorf("tail seq %d after %d at head %d", e.Seq, prev, head)
						return
					}
					prev = e.Seq
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := int64(2 + writers*perWriter)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := Lines(data)
	if int64(len(lines)) != want || !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("file has %d complete lines, want %d", len(lines), want)
	}
	for i, line := range lines {
		if err := json.Unmarshal(line, &rec); err != nil || rec.Seq != int64(i+1) {
			t.Fatalf("line %d = %q (err %v), want seq %d", i+1, line, err, i+1)
		}
	}
}

// FuzzJournalResume: whatever bytes a file holds, resuming it and
// appending one record leaves exactly its complete lines plus the record.
func FuzzJournalResume(f *testing.F) {
	for _, seed := range []string{"../../testdata/golden/events.jsonl", "../harness/testdata/checkpoint.v2.jsonl"} {
		data, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-len(data)/3])
	}
	f.Add([]byte(""))
	f.Add([]byte("no newline"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeFile(t, string(data))
		j, last, err := Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		kept := Lines(data)
		if len(kept) == 0 && last != nil || len(kept) > 0 && !bytes.Equal(last, kept[len(kept)-1]) {
			t.Fatalf("last = %q, want the last complete line", last)
		}
		if err := j.Append(func(int64) ([]byte, error) { return []byte("new"), nil }); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := append(kept, []byte("new"))
		if gl := Lines(got); len(gl) != len(want) || !bytes.HasSuffix(got, []byte("new\n")) {
			t.Fatalf("resumed file has %d complete lines, want %d", len(gl), len(want))
		}
		if !bytes.Equal(bytes.Join(Lines(got), []byte("\n")), bytes.Join(want, []byte("\n"))) {
			t.Fatalf("resumed file %q, want the complete lines of %q plus the record", got, data)
		}
	})
}
