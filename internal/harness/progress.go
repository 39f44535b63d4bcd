package harness

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dcelens/internal/metrics"
)

// Progress is the live, lock-guarded record of a running campaign: its
// seed count, its worker count, its start time, and the findings discovered
// so far (appended by the corpus layer as seeds complete). View derives
// everything a live surface shows from it and one registry snapshot — the
// stderr heartbeat (Heartbeat), the monitor's /progress and /metrics, and
// the service's /jobs/{id}/progress all render a View, so the terminal and
// HTTP views never disagree. Nothing else reads the campaign counters
// internal/corpus writes.
//
// All methods are nil-safe, matching the metrics registry's design rule: a
// campaign without monitoring threads a nil *Progress and pays only nil
// checks.
type Progress struct {
	total   int
	workers int
	reg     *metrics.Registry
	start   time.Time

	mu       sync.Mutex
	findings []any
}

// NewProgress starts tracking a campaign of total seeds running on workers
// parallel workers, with reg as the counter/histogram source. The elapsed
// clock starts now.
func NewProgress(total, workers int, reg *metrics.Registry) *Progress {
	if workers <= 0 {
		workers = 1
	}
	return &Progress{total: total, workers: workers, reg: reg, start: time.Now()}
}

// Done returns the number of completed seeds (freshly analyzed plus
// checkpoint-restored). It reads the two counters directly rather than
// through a registry snapshot: the service's job status, which clients
// poll in a tight loop, needs nothing else.
func (p *Progress) Done() int {
	if p == nil {
		return 0
	}
	return int(p.reg.Counter(metrics.CounterSeedsAnalyzed).Value() +
		p.reg.Counter(metrics.CounterSeedsRestored).Value())
}

// AddFindings appends findings discovered by a completed seed. The values
// are opaque to this package (the corpus layer passes its Finding records);
// they only need to JSON-marshal for the /findings endpoint. Nil-safe.
func (p *Progress) AddFindings(fs ...any) {
	if p == nil || len(fs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.findings = append(p.findings, fs...)
}

// Findings returns a copy of the findings recorded so far.
func (p *Progress) Findings() []any {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]any, len(p.findings))
	copy(out, p.findings)
	return out
}

// FindingCount returns the number of findings recorded so far.
func (p *Progress) FindingCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.findings)
}

// Rates are the gauges that exist only as derivations over other sources.
// They are never stored in the registry, so the snapshot (and the
// deterministic artifacts built from it) stays untouched; /metrics serves
// them beside the snapshot they were derived from.
type Rates struct {
	// UnitsPerSec is the units optimized so far over the elapsed wall time.
	UnitsPerSec float64 `json:"units_per_sec"`
	// PassSkipRate is the fraction of (function, pass-instance) visits the
	// dirty-tracking pass manager skipped as provably clean; PassSkipKnown
	// is false before any pass has run, so displays can omit the figure
	// rather than show a bogus zero.
	PassSkipRate  float64 `json:"pass_skip_rate"`
	PassSkipKnown bool    `json:"pass_skip_known"`
	// WorkerOccupancy is each worker's busy fraction of the elapsed wall
	// time, indexed by worker, from the scheduler probe's busy counters.
	// Nil for deterministic registries (occupancy is a pure wall-clock
	// quantity the deterministic artifacts must not depend on) and before
	// any time has elapsed.
	WorkerOccupancy []float64 `json:"worker_occupancy,omitempty"`
}

// View is one reading of a running campaign: the /progress body and the
// source of each heartbeat line.
type View struct {
	SeedsTotal int `json:"seeds_total"`
	SeedsDone  int `json:"seeds_done"`
	Workers    int `json:"workers"`
	Findings   int `json:"findings"`
	// Failures counts failures per kind (crash, timeout, miscompile,
	// infeasible) as recorded by this process. Restored seeds' failures
	// are not re-counted here; they reach the final report through outcome
	// aggregation instead.
	Failures  map[string]int64 `json:"failures"`
	ElapsedMs int64            `json:"elapsed_ms"`
	// EtaMs estimates the remaining wall time; EtaKnown is false while
	// there is no basis for an estimate yet.
	EtaMs    int64 `json:"eta_ms"`
	EtaKnown bool  `json:"eta_known"`
	// Units is the number of compilation units optimized so far.
	Units int64 `json:"units"`
	Rates
}

// View derives the campaign's live view from snap, a snapshot of its
// registry, and one read of the elapsed clock, so every figure in it
// describes the same instant. The ETA is the remaining seeds times the mean
// seed wall time (metrics.HistCampaignSeed), divided by the worker count:
// unknown before a fresh seed completes (restored seeds do not feed the
// histogram, so on a resume the estimate reflects this process's real
// throughput), and a known zero once every seed is done. A nil Progress
// yields a zero campaign with only the snapshot-derived figures filled in.
func (p *Progress) View(snap *metrics.RegistrySnapshot) View {
	c := snap.Counters
	v := View{Units: c[metrics.CounterUnits]}
	visited, skipped := c[metrics.CounterPassVisited], c[metrics.CounterPassSkipped]
	if n := visited + skipped; n > 0 {
		v.PassSkipRate, v.PassSkipKnown = float64(skipped)/float64(n), true
	}
	if p == nil {
		v.Failures = map[string]int64{}
		return v
	}
	elapsed := time.Since(p.start)
	v.SeedsTotal, v.Workers, v.Findings = p.total, p.workers, p.FindingCount()
	v.SeedsDone = int(c[metrics.CounterSeedsAnalyzed] + c[metrics.CounterSeedsRestored])
	v.Failures = map[string]int64{
		KindCrash.String():      c[metrics.CounterCrashes],
		KindTimeout.String():    c[metrics.CounterTimeouts],
		KindMiscompile.String(): c[metrics.CounterMiscompiles],
		KindInfeasible.String(): c[metrics.CounterInfeasible],
	}
	v.ElapsedMs = elapsed.Milliseconds()
	var mean int64
	if h := snap.Histograms[metrics.HistCampaignSeed]; h.Count > 0 {
		mean = h.SumNs / h.Count
	}
	switch remaining := p.total - v.SeedsDone; {
	case remaining <= 0:
		v.EtaKnown = true
	case mean > 0:
		v.EtaMs = time.Duration(float64(mean) * float64(remaining) / float64(p.workers)).Milliseconds()
		v.EtaKnown = true
	}
	if elapsed <= 0 {
		return v
	}
	v.UnitsPerSec = float64(v.Units) / elapsed.Seconds()
	if p.reg != nil && !snap.Deterministic {
		v.WorkerOccupancy = make([]float64, p.workers)
		for w := range v.WorkerOccupancy {
			v.WorkerOccupancy[w] = float64(c[metrics.WorkerBusyCounter(w)]) / float64(elapsed.Nanoseconds())
		}
	}
	return v
}

// Line renders v as one heartbeat line, prefixed with tool: seeds
// done/total, throughput, findings, failure counts, then units/s and the
// pass skip rate once units flow, and the ETA.
func (v View) Line(tool string) string {
	rate := 0.0
	if v.ElapsedMs > 0 {
		rate = float64(v.SeedsDone) / (float64(v.ElapsedMs) / 1000)
	}
	eta := "?"
	switch {
	case v.SeedsTotal > 0 && v.SeedsDone >= v.SeedsTotal:
		eta = "done"
	case v.EtaKnown:
		eta = (time.Duration(v.EtaMs) * time.Millisecond).Round(time.Second).String()
	}
	perf := ""
	if v.UnitsPerSec > 0 {
		perf = fmt.Sprintf(", %.1f units/s", v.UnitsPerSec)
		if v.PassSkipKnown {
			perf += fmt.Sprintf(", %.0f%% skipped", v.PassSkipRate*100)
		}
	}
	return fmt.Sprintf("%s: %d/%d seeds, %.1f seeds/s, %d findings, %d crashes, %d timeouts%s, ETA %s",
		tool, v.SeedsDone, v.SeedsTotal, rate, v.Findings,
		v.Failures[KindCrash.String()], v.Failures[KindTimeout.String()], perf, eta)
}

// Heartbeat prints the campaign's View as one line to out every interval
// (2s when interval <= 0) and returns a stop function that prints a final
// line and waits for the printing goroutine to exit. It is purely an
// operator aid — nothing in the deterministic report depends on it — and
// dce-campaign starts it only on an interactive stderr (StderrIsTerminal)
// without -quiet. A nil Progress or output yields a no-op stop.
func (p *Progress) Heartbeat(out io.Writer, interval time.Duration, tool string) (stop func()) {
	if p == nil || out == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for running := true; running; {
			select {
			case <-tick.C:
			case <-done:
				running = false
			}
			fmt.Fprintln(out, p.View(p.reg.Snapshot()).Line(tool))
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// StderrIsTerminal reports whether stderr is attached to an interactive
// terminal (a character device). Redirected or piped campaigns — including
// the test harness — are detected here and the heartbeat stays silent, so
// log files never fill with progress chatter.
func StderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
