// Command dcebench is the dcelens benchmark. One invocation runs one
// workload on inputs drawn from a seed, checks the product's outputs, and
// prints its metrics: human-readable lines first, then one JSON object as
// the last line of standard output.
//
//	dcebench -workload campaign -seed 1 -seconds 20 -trace 0
//
// -trace 0 measures the end-to-end metrics with no tracing; -trace 1 runs
// the traced replay and prints the per-layer metrics. The exit code is 0
// only when every output check passed. README.md describes the workloads
// and every metric.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed     int64
	budget   time.Duration // how long the timed region measures
	serveBin string        // the dce-serve binary (service-sweep)
	scratch  string        // per-run scratch directory inside the checkout
	spans    string        // where a traced run writes its spans ("": nowhere)
}

// inputs is the workload's input generator: the same seed gives the same
// base seeds in the same order.
func (e *env) inputs() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

type workload struct {
	run      func(e *env, r *result) error
	traced   func(e *env, r *result) error
	endToEnd []metricSpec // the metrics run sets
}

var workloads = map[string]workload{
	"campaign":      {runCampaign, traceCampaign, endToEnd},
	"service-sweep": {runService, traceService, endToEnd},
	"triage":        {runTriage, traceTriage, triageEndToEnd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "campaign, service-sweep or triage")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed region")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay with per-layer metrics")
	serveBin := fs.String("serve-bin", "", "path of the dce-serve binary (service-sweep)")
	scratch := fs.String("scratch", "", "scratch directory (default: a temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dcebench: want -workload %s, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := scratchDir(*scratch)
	if err != nil {
		fmt.Fprintf(stderr, "dcebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, serveBin: *serveBin, scratch: dir}
	if *scratch != "" && *trace == 1 {
		e.spans = filepath.Join(*scratch, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	}

	r := newResult(stdout)
	fn, want := w.run, w.endToEnd
	if *trace == 1 {
		fn, want = w.traced, perLayer
	}
	fmt.Fprintf(stdout, "# dcebench workload=%s seed=%d seconds=%d trace=%d nproc=%d\n", *name, *seed, *seconds, *trace, runtime.NumCPU())
	if err := fn(e, r); err != nil {
		fmt.Fprintf(stderr, "dcebench: %s: %v\n", *name, err)
		return 1
	}
	line, err := r.line(want)
	if err != nil {
		fmt.Fprintf(stderr, "dcebench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(r.violations) > 0 {
		fmt.Fprintf(stderr, "dcebench: %s: %d output check(s) failed\n", *name, len(r.violations))
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// scratchDir makes a fresh directory for one run under parent (or under
// the system temporary directory when parent is empty).
func scratchDir(parent string) (string, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(parent, "run-")
}

// subdir makes a named directory inside the run's scratch directory.
func (e *env) subdir(name string) (string, error) {
	d := filepath.Join(e.scratch, name)
	return d, os.MkdirAll(d, 0o755)
}

// statusMiB reads a size field of a process's /proc status, such as
// VmRSS (resident set size) or VmHWM (its peak), in MiB.
func statusMiB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssEvery is the RSS sampling period.
const rssEvery = 50 * time.Millisecond

// rssSampler samples a process's resident set size every rssEvery, from
// its start until stop.
type rssSampler struct {
	pid     string
	quit    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
	err     error
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			v, err := statusMiB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and sets rss_tail_mb: the highest percentile of
// the samples with at least minBeyond samples above it (the maximum when
// there are too few samples for that). Unlike the single maximum, which
// depends on where the garbage collector happened to run, it repeats
// closely from run to run. The maximum (VmHWM) is printed alongside.
func (s *rssSampler) stop(r *result) error {
	close(s.quit)
	<-s.done
	if s.err != nil {
		return fmt.Errorf("sampling RSS: %w", s.err)
	}
	peak, err := statusMiB(s.pid, "VmHWM")
	if err != nil {
		return err
	}
	d := summarize(s.samples)
	tail := d.Tail
	if d.TailPct == 0 {
		tail = peak
	}
	r.timing("rss", "MiB", s.samples)
	r.print("peak_rss_mb", "MiB", peak)
	r.set("rss_tail_mb", "MiB", tail)
	return nil
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPUSeconds is another process's user plus system CPU time, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / 100, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
