package harness

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"dcelens/internal/metrics"
)

func TestProgressNilSafety(t *testing.T) {
	var p *Progress
	if p.Done() != 0 || p.FindingCount() != 0 {
		t.Fatal("nil progress not zero")
	}
	p.AddFindings("ignored")
	if p.Findings() != nil {
		t.Fatal("nil progress returned findings")
	}
	v := p.View(metrics.New().Snapshot())
	if v.SeedsTotal != 0 || v.SeedsDone != 0 || v.EtaKnown {
		t.Fatalf("nil progress view = %+v, want a zero campaign with no ETA", v)
	}
	if v.Failures == nil || len(v.Failures) != 0 {
		t.Fatalf("nil progress failures = %v, want an empty map", v.Failures)
	}
	p.Heartbeat(&bytes.Buffer{}, time.Hour, "t")()
}

func TestProgressCounts(t *testing.T) {
	reg := metrics.New()
	p := NewProgress(10, 2, reg)
	if v := p.View(reg.Snapshot()); v.SeedsTotal != 10 || v.SeedsDone != 0 || v.Workers != 2 {
		t.Fatalf("fresh progress = %d/%d on %d workers", v.SeedsDone, v.SeedsTotal, v.Workers)
	}
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(3)
	reg.Counter(metrics.CounterSeedsRestored).Add(2)
	reg.Counter(metrics.CounterTimeouts).Add(4)
	v := p.View(reg.Snapshot())
	if p.Done() != 5 || v.SeedsDone != 5 {
		t.Fatalf("done = %d, view %d, want 5 (analyzed + restored)", p.Done(), v.SeedsDone)
	}
	if got := v.Failures["timeout"]; got != 4 {
		t.Fatalf("timeout count = %d, want 4", got)
	}
}

func TestProgressFindings(t *testing.T) {
	p := NewProgress(1, 1, nil)
	p.AddFindings("a", "b")
	p.AddFindings() // no-op
	p.AddFindings("c")
	if p.FindingCount() != 3 {
		t.Fatalf("count = %d, want 3", p.FindingCount())
	}
	fs := p.Findings()
	fs[0] = "mutated" // the returned slice is a copy
	if p.Findings()[0] != "a" {
		t.Fatal("Findings exposed internal state")
	}
}

func TestProgressETA(t *testing.T) {
	reg := metrics.New()
	p := NewProgress(4, 2, reg)
	if p.View(reg.Snapshot()).EtaKnown {
		t.Fatal("ETA known before any seed completed")
	}
	// Two seeds done at ~100ms each, two remain on two workers: ~100ms.
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(2)
	reg.Histogram(metrics.HistCampaignSeed).Observe(100 * time.Millisecond)
	reg.Histogram(metrics.HistCampaignSeed).Observe(100 * time.Millisecond)
	v := p.View(reg.Snapshot())
	if !v.EtaKnown {
		t.Fatal("ETA unknown after observations")
	}
	if v.EtaMs < 50 || v.EtaMs > 200 {
		t.Fatalf("eta = %dms, want ~100ms", v.EtaMs)
	}
	// Finished campaigns report a known zero ETA.
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(2)
	if v := p.View(reg.Snapshot()); !v.EtaKnown || v.EtaMs != 0 {
		t.Fatalf("finished eta = %dms/%v, want 0/true", v.EtaMs, v.EtaKnown)
	}
}

// TestPassSkipRate covers the zero-denominator guard: with no pass data,
// from a nil or an empty registry, the skip rate is unknown.
func TestPassSkipRate(t *testing.T) {
	var none *metrics.Registry
	if NewProgress(1, 1, nil).View(none.Snapshot()).PassSkipKnown {
		t.Error("nil registry reported a known skip rate")
	}
	r := metrics.New()
	if NewProgress(1, 1, r).View(r.Snapshot()).PassSkipKnown {
		t.Error("empty registry reported a known skip rate")
	}
	r.Counter(metrics.CounterPassVisited).Add(3)
	r.Counter(metrics.CounterPassSkipped).Add(1)
	if v := NewProgress(1, 1, r).View(r.Snapshot()); !v.PassSkipKnown || v.PassSkipRate != 0.25 {
		t.Errorf("skip rate = %g (known=%v), want 0.25", v.PassSkipRate, v.PassSkipKnown)
	}
}

// TestHeartbeatLine renders a line from counters without a terminal.
func TestHeartbeatLine(t *testing.T) {
	r := metrics.New()
	r.Counter(metrics.CounterSeedsAnalyzed).Add(5)
	r.Counter(metrics.CounterCrashes).Add(2)
	line := NewProgress(10, 1, r).View(r.Snapshot()).Line("t")
	for _, want := range []string{"t:", "5/10 seeds", "2 crashes", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat line %q missing %q", line, want)
		}
	}
}

// TestHeartbeatLinePerf: once units flow, the line carries live units/s and
// the middle-end pass skip rate; before any pass has run the skip figure is
// omitted rather than rendered as a bogus 0%.
func TestHeartbeatLinePerf(t *testing.T) {
	r := metrics.New()
	r.Counter(metrics.CounterSeedsAnalyzed).Add(5)
	r.Counter(metrics.CounterUnits).Add(40)
	p := NewProgress(10, 1, r)
	line := p.View(r.Snapshot()).Line("t")
	if !strings.Contains(line, "units/s") {
		t.Errorf("heartbeat line %q missing units/s", line)
	}
	if strings.Contains(line, "skipped") {
		t.Errorf("heartbeat line %q shows a skip rate with no pass data", line)
	}

	r.Counter(metrics.CounterPassVisited).Add(25)
	r.Counter(metrics.CounterPassSkipped).Add(75)
	line = p.View(r.Snapshot()).Line("t")
	if !strings.Contains(line, "75% skipped") {
		t.Errorf("heartbeat line %q missing skip rate", line)
	}
}

// TestHeartbeatLineWithProgress: the line carries the view's finding count
// and its ETA estimate, the figures /progress serves.
func TestHeartbeatLineWithProgress(t *testing.T) {
	v := View{SeedsTotal: 10, SeedsDone: 5, Findings: 7, EtaMs: 90_000, EtaKnown: true}
	line := v.Line("dce-test")
	if !strings.Contains(line, "7 findings") {
		t.Fatalf("line %q missing finding count", line)
	}
	if !strings.Contains(line, "ETA 1m30s") {
		t.Fatalf("line %q missing progress ETA", line)
	}

	// Before the first fresh seed there is no estimate basis: ETA ?.
	v.EtaMs, v.EtaKnown = 0, false
	if line := v.Line("dce-test"); !strings.Contains(line, "ETA ?") {
		t.Fatalf("line %q, want unknown ETA", line)
	}
}

// TestHeartbeatStartStop: start/stop emits at least the final line and the
// goroutine exits.
func TestHeartbeatStartStop(t *testing.T) {
	var buf bytes.Buffer
	r := metrics.New()
	r.Counter(metrics.CounterSeedsAnalyzed).Add(3)
	stop := NewProgress(3, 1, r).Heartbeat(&buf, time.Hour, "t")
	stop()
	if !strings.Contains(buf.String(), "3/3 seeds") {
		t.Errorf("final heartbeat line missing: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "ETA done") {
		t.Errorf("completed campaign should render ETA done: %q", buf.String())
	}
}

// heartbeatLine is the one shape of a heartbeat line: the perf figures
// appear once units flow, the skip rate once a pass has run.
var heartbeatLine = regexp.MustCompile(`^t: \d+/\d+ seeds, [\d.]+ seeds/s, \d+ findings, \d+ crashes, \d+ timeouts(, [\d.]+ units/s(, \d+% skipped)?)?, ETA \S+$`)

// TestHeartbeatLineFormat renders the heartbeat at each stage of a
// campaign, from no seed done to all done, and matches every line against
// the one format.
func TestHeartbeatLineFormat(t *testing.T) {
	reg := metrics.New()
	p := NewProgress(4, 2, reg)
	var buf bytes.Buffer
	render := func() {
		stop := p.Heartbeat(&buf, time.Hour, "t")
		stop()
	}
	render()
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(2)
	reg.Counter(metrics.CounterCrashes).Inc()
	reg.Counter(metrics.CounterUnits).Add(6)
	reg.Histogram(metrics.HistCampaignSeed).Observe(10 * time.Millisecond)
	p.AddFindings("f")
	render()
	reg.Counter(metrics.CounterPassVisited).Add(3)
	reg.Counter(metrics.CounterPassSkipped).Inc()
	render()
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(2)
	render()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		if !heartbeatLine.MatchString(l) {
			t.Errorf("heartbeat line %q does not match %s", l, heartbeatLine)
		}
	}
	for i, want := range []string{"0/4 seeds", "1 findings, 1 crashes", "25% skipped", "4/4 seeds"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want %q in it", i, lines[i], want)
		}
	}
	if !strings.HasSuffix(lines[3], "ETA done") {
		t.Errorf("finished campaign line = %q, want ETA done", lines[3])
	}
}
