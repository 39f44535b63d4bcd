package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricSpec names one metric of the JSON result line.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run (-trace 0) of the campaign
// and service-sweep workloads. They must match the end_to_end list of
// BENCHMARK.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"programs_per_s", "programs/s"},
	{"rss_tail_mb", "MiB"},
}

// triageEndToEnd are the metrics of an untraced triage run. Triage is not
// in BENCHMARK.json (README.md says why), so its rates keep their own
// names and units.
var triageEndToEnd = []metricSpec{
	{"setup_s", "s"},
	{"reduce_findings_per_min", "findings/min"},
	{"bisects_per_min", "candidates/min"},
	{"rss_tail_mb", "MiB"},
}

// optPasses are the optimizer passes of every personality's schedules at
// every level; each gets an opt.<pass>.ms per-layer metric. A pass added
// to the schedules later still counts in opt.ms and is printed, but gets
// no JSON metric until it is listed here and in BENCHMARK.json.
var optPasses = []string{
	"compact", "dce", "dse", "globaldce", "gvn", "inline", "instcombine",
	"ipsccp", "jumpthread", "licm", "localize-globals", "mem2reg", "sccp",
	"simplifycfg", "unroll", "unswitch", "vrp", "widen-stores",
}

// perLayer are the metrics of a traced run (-trace 1): every layer metric
// each workload measures. They must match the per_layer list of
// BENCHMARK.json. Layer metrics that only one workload can produce are
// printed by that workload's traced run but are not part of the JSON line
// (README.md lists them).
var perLayer = func() []metricSpec {
	s := []metricSpec{
		{"cgen.ms", "ms"},
		{"instrument.ms", "ms"},
		{"instrument.markers", "count"},
		{"interp.ms", "ms"},
		{"core.markercfg_ms", "ms"},
		{"core.primary_ms", "ms"},
		{"pipeline.config_ms", "ms"},
		{"lower.ms", "ms"},
		{"opt.ms", "ms"},
	}
	for _, p := range optPasses {
		s = append(s, metricSpec{"opt." + p + ".ms", "ms"})
	}
	return append(s, []metricSpec{
		{"opt.pass_instances", "count"},
		{"opt.changed_ratio", "ratio"},
		{"opt.funcs_skipped_ratio", "ratio"},
		{"ir.instrs_out", "count"},
		{"asm.emit_ms", "ms"},
		{"asm.scan_ms", "ms"},
		{"asm.bytes", "bytes"},
		{"corpus.overhead_ms_per_seed", "ms"},
		{"sched.speedup_j2", "ratio"},
		{"cpu_util", "ratio"},
		{"harness.ckpt_save_p50_ms", "ms"},
		{"harness.ckpt_save_max_ms", "ms"},
		{"harness.ckpt_bytes_written", "bytes"},
		{"harness.ckpt_load_ms", "ms"},
		{"remark.overhead_ratio", "ratio"},
		{"remark.applied_per_unit", "count"},
		{"remark.missed_per_unit", "count"},
		{"metrics.events_per_seed", "count"},
		{"span.spans_per_seed", "count"},
		{"report.summary_ms", "ms"},
		{"history.snapshot_ms", "ms"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.heap_live_mb", "MiB"},
	}...)
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports why a metric name or unit would be refused, or nil.
func validMetric(name, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	return nil
}

// dist summarizes a timing sample: the median plus the highest integer
// percentile that still has at least ten samples beyond it. Tail is 0
// (and TailPct 0) when the sample is too small for any percentile above
// the median to qualify.
type dist struct {
	N       int
	Median  float64
	TailPct int
	Tail    float64
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

func summarize(samples []float64) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: n, Median: s[n/2]}
	if n%2 == 0 {
		d.Median = (s[n/2-1] + s[n/2]) / 2
	}
	// Nearest-rank percentile p is s[rank-1] with rank = ceil(p*n/100);
	// n-rank samples lie beyond it.
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= minBeyond {
			d.TailPct, d.Tail = p, s[rank-1]
			break
		}
	}
	return d
}

func (d dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	if d.TailPct == 0 {
		return fmt.Sprintf("median=%.4g n=%d (no tail: fewer than %d samples beyond p51)", d.Median, d.N, minBeyond)
	}
	return fmt.Sprintf("median=%.4g p%d=%.4g n=%d", d.Median, d.TailPct, d.Tail, d.N)
}

func median(samples []float64) float64 { return summarize(samples).Median }

// percentile is the nearest-rank p-th percentile of samples (0 when empty).
func percentile(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) * float64(len(s)) / 100))
	return s[max(rank, 1)-1]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the JSON metrics, the operation counts,
// and every output-check violation. Human-readable lines go to out as
// they are produced.
type result struct {
	out        io.Writer
	metrics    map[string]metricValue
	attempted  int
	failed     int
	violations []string
}

func newResult(out io.Writer) *result {
	return &result{out: out, metrics: map[string]metricValue{}}
}

// set records a JSON metric and prints it.
func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{v, unit}
	r.print(name, unit, v)
}

// print prints a metric that is not part of the JSON line.
func (r *result) print(name, unit string, v float64) {
	fmt.Fprintf(r.out, "%-34s %14.6g %s\n", name, v, unit)
}

// timing prints a timing distribution and returns its median.
func (r *result) timing(name, unit string, samples []float64) float64 {
	d := summarize(samples)
	fmt.Fprintf(r.out, "%-34s %s %s\n", name, unit, d)
	return d.Median
}

func (r *result) notef(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// check records a violation unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.violations = append(r.violations, msg)
		fmt.Fprintf(r.out, "VIOLATION: %s\n", msg)
	}
}

// line renders the JSON result line, verifying that the metric set is
// exactly want and every name and unit is valid.
func (r *result) line(want []metricSpec) ([]byte, error) {
	if len(r.metrics) != len(want) {
		var got []string
		for name := range r.metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		return nil, fmt.Errorf("result has %d metrics, want %d: %s", len(r.metrics), len(want), strings.Join(got, ","))
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("result lacks metric %s", m.Name)
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s: unit %q, want %q", m.Name, v.Unit, m.Unit)
		}
		if err := validMetric(m.Name, m.Unit); err != nil {
			return nil, err
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s: value %v is not a number", m.Name, v.Value)
		}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.violations) == 0, r.attempted, r.failed, r.metrics})
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
