package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointSaveAppends: every save appends one record, so each file
// is a byte prefix of the next and the bytes written over a campaign equal
// the final file size (a rewriting checkpoint writes O(n²) bytes).
func TestCheckpointSaveAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp := NewCheckpoint(path)
	if err := cp.Bind(map[string]string{"base_seed": "1"}); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	var written int64
	for seed := int64(1); seed <= 30; seed++ {
		if err := cp.Save(seed, &fakeOutcome{Seed: seed, Label: strings.Repeat("x", int(seed))}); err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(cur, prev) {
			t.Fatalf("save of seed %d rewrote the file instead of appending", seed)
		}
		written += int64(len(cur) - len(prev))
		prev = cur
	}
	if written != int64(len(prev)) {
		t.Fatalf("wrote %d bytes for a %d-byte file", written, len(prev))
	}
	if n := bytes.Count(prev, []byte("\n")); n != 31 {
		t.Fatalf("file has %d lines, want a header plus 30 records", n)
	}
	re, err := LoadCheckpoint(path)
	if err != nil || re.Len() != 30 || re.Meta()["base_seed"] != "1" {
		t.Fatalf("reload: len %d, meta %v, err %v", re.Len(), re.Meta(), err)
	}

	// A resumed checkpoint appends to the loaded file; a later record for
	// the same seed wins.
	if err := re.Save(7, &fakeOutcome{Seed: 7, Label: "again"}); err != nil {
		t.Fatal(err)
	}
	cur, _ := os.ReadFile(path)
	if !bytes.HasPrefix(cur, prev) {
		t.Fatal("a loaded checkpoint rewrote its file")
	}
	re, err = LoadCheckpoint(path)
	var out fakeOutcome
	if ok, rerr := re.Restore(7, &out); err != nil || !ok || rerr != nil || out.Label != "again" || re.Len() != 30 {
		t.Fatalf("re-saved seed 7 = %+v (len %d, err %v)", out, re.Len(), err)
	}

	// A new checkpoint on the same path starts the file afresh.
	fresh := NewCheckpoint(path)
	if err := fresh.Save(1, &fakeOutcome{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if re, err := LoadCheckpoint(path); err != nil || re.Len() != 1 {
		t.Fatalf("fresh checkpoint kept old records: %v", err)
	}
}

// TestLoadCheckpointRefusals: a torn or missing header and a version-1
// document are errors naming the file; a torn last record is ignored.
func TestLoadCheckpointRefusals(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	header := `{"version":2,"meta":{"base_seed":"1"}}` + "\n"
	for name, tc := range map[string]struct{ data, err string }{
		"empty":     {"", "missing or torn header"},
		"torn":      {header[:20], "missing or torn header"},
		"unended":   {header[:len(header)-1], "missing or torn header"},
		"version 1": {"{\n \"version\": 1,\n \"done\": {}\n}\n", "version 1, want 2"},
		"bad line":  {header + "{}\n", "line 2: not a seed record"},
	} {
		path := write(name, tc.data)
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want %q naming %s", name, err, tc.err, path)
		}
	}
	path := write("torn-record", header+`{"seed":1,"outcome":{}}`+"\n"+`{"seed":2,"outc`)
	cp, err := LoadCheckpoint(path)
	if err != nil || cp.Len() != 1 {
		t.Fatalf("torn record: len %d, err %v; want seed 1 only", cp.Len(), err)
	}
	if data, _ := os.ReadFile(path); !strings.HasSuffix(string(data), `"outc`) {
		t.Fatal("loading a checkpoint wrote to it")
	}
}

// FuzzLoadCheckpoint: any file either fails to load or yields a checkpoint
// whose seeds survive a save and a reload.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range []string{"testdata/checkpoint.v2.jsonl", "../../testdata/golden/events.jsonl"} {
		data, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-len(data)/3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		before := map[int64]json.RawMessage{}
		for _, s := range cp.Seeds() {
			var raw json.RawMessage
			if _, err := cp.Restore(s, &raw); err != nil {
				t.Fatal(err)
			}
			before[s] = raw
		}
		next := int64(0)
		for before[next] != nil {
			next++
		}
		if err := cp.Save(next, "new"); err != nil {
			t.Fatal(err)
		}
		re, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("reload after save: %v", err)
		}
		if re.Len() != len(before)+1 {
			t.Fatalf("reload holds %d seeds, want %d", re.Len(), len(before)+1)
		}
		for s, raw := range before {
			var got json.RawMessage
			if ok, err := re.Restore(s, &got); !ok || err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("seed %d: %s after reload, want %s", s, got, raw)
			}
		}
	})
}

// BenchmarkCheckpointSave: one Save after n earlier seeds. An appending
// checkpoint costs the same at any n; a rewriting one grows with n.
func BenchmarkCheckpointSave(b *testing.B) {
	outcome := &fakeOutcome{Label: strings.Repeat("x", 2400)} // ~ one service-sweep seed record
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cp := NewCheckpoint(filepath.Join(b.TempDir(), "cp.jsonl"))
			if err := cp.Bind(map[string]string{"base_seed": "1"}); err != nil {
				b.Fatal(err)
			}
			for seed := int64(0); seed < int64(n); seed++ {
				if err := cp.Save(seed, outcome); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cp.Save(int64(n+i), outcome); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
