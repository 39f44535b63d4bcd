package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so summarize must sort
	}
	return s
}

func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		median  float64
		tailPct int
		tail    float64
	}{
		{n: 0},
		{n: 1, median: 1},
		{n: 2, median: 1.5},
		{n: 19, median: 10},   // no percentile above p50 leaves 10 beyond it
		{n: 20, median: 10.5}, // p50 would, but p50 is not a tail
		{n: 25, median: 13, tailPct: 60, tail: 15}, // rank 15, 10 beyond
		{n: 100, median: 50.5, tailPct: 90, tail: 90},
		{n: 1000, median: 500.5, tailPct: 99, tail: 990},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.Median != tc.median || d.TailPct != tc.tailPct || d.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want median %v p%d=%v", tc.n, d, tc.median, tc.tailPct, tc.tail)
		}
		if d.TailPct > 0 {
			beyond := 0
			for _, v := range seq(tc.n) {
				if v > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%d has %d samples beyond it, want >= %d", tc.n, d.TailPct, beyond, minBeyond)
			}
		}
	}
	if got := summarize(seq(19)).String(); !strings.Contains(got, "no tail") {
		t.Errorf("n=19 renders %q, want it to say there is no tail", got)
	}
	if got := percentile(seq(100), 95); got != 95 {
		t.Errorf("percentile(1..100, 95) = %v, want 95", got)
	}
}

func TestValidMetric(t *testing.T) {
	for _, ok := range [][2]string{
		{"setup_s", "s"}, {"opt.localize-globals.ms", "ms"}, {"9lives", "1/s"}, {"x", "%"},
		{strings.Repeat("a", 64), "count"},
	} {
		if err := validMetric(ok[0], ok[1]); err != nil {
			t.Errorf("validMetric(%q, %q) = %v, want nil", ok[0], ok[1], err)
		}
	}
	for _, bad := range [][2]string{
		{"", "s"}, {"_x", "s"}, {".x", "s"}, {"a b", "s"}, {"a/b", "s"}, {strings.Repeat("a", 65), "s"},
		{"x", ""}, {"x", "m s"}, {"x", strings.Repeat("u", 17)}, {"x", "ms,"},
	} {
		if validMetric(bad[0], bad[1]) == nil {
			t.Errorf("validMetric(%q, %q) = nil, want an error", bad[0], bad[1])
		}
	}
	for _, m := range triageEndToEnd {
		if err := validMetric(m.Name, m.Unit); err != nil {
			t.Error(err)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if err := validMetric(m.Name, m.Unit); err != nil {
			t.Error(err)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestResultLine(t *testing.T) {
	want := []metricSpec{{"a_ms", "ms"}, {"b", "count"}}
	r := newResult(&bytes.Buffer{})
	r.set("a_ms", "ms", 1.25)
	if _, err := r.line(want); err == nil {
		t.Fatal("line accepted a result missing metric b")
	}
	r.set("b", "count", 0)
	if _, err := r.line(want); err == nil {
		t.Fatal("line accepted a result with no attempted operation")
	}
	r.attempted, r.failed = 3, 1
	line, err := r.line(want)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 1 || got.Metrics["a_ms"] != (metricValue{1.25, "ms"}) {
		t.Errorf("line = %s", line)
	}
	r.check(false, "tampered")
	if line, _ := r.line(want); !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Errorf("a violation must make the line incorrect: %s", line)
	}
	r.set("extra", "s", 1)
	if _, err := r.line(want); err == nil {
		t.Error("line accepted a metric that is not in the list")
	}
	r = newResult(&bytes.Buffer{})
	r.attempted = 1
	r.set("a_ms", "s", 1)
	r.set("b", "count", 1)
	if _, err := r.line(want); err == nil {
		t.Error("line accepted a metric with the wrong unit")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark prints %s %s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}
