// dce-campaign runs a fault-tolerant corpus campaign: every per-(seed,
// config) compilation is isolated by internal/harness (panics become
// bucketed crash findings with reproducers, runaway fixpoints hit the
// step-budget deadline), a JSON checkpoint makes interrupted campaigns
// resumable, and a deterministic fault-injection hook exercises all of it.
//
// Usage:
//
//	dce-campaign -n 50 -seed 1                      # plain campaign
//	dce-campaign -n 50 -checkpoint cp.json          # checkpoint as seeds finish
//	dce-campaign -n 50 -checkpoint cp.json -resume  # skip completed seeds
//	dce-campaign -n 20 -inject panic:gvn:5,stall:licm:7
//	dce-campaign -n 20 -halt-after 10 -checkpoint cp.json  # simulate a kill
//	dce-campaign -n 50 -serve 127.0.0.1:8080        # live monitoring HTTP
//	dce-campaign -n 50 -history runs/               # run-history snapshot
//	dce-campaign -n 50 -j 8                         # 8 in-process workers
//	dce-campaign -n 50 -j 8 -trace out.json         # span timeline (Perfetto, dce-prof)
//	dce-campaign -n 50 -shard 0/2 -checkpoint a.json  # half the corpus...
//	dce-campaign -n 50 -shard 1/2 -checkpoint b.json  # ...the other half
//	dce-report -merge a.json,b.json                 # ...merged losslessly
//
// The report (stdout) is deterministic for a given configuration: a
// resumed campaign prints byte-identical output to an uninterrupted one.
// Crash reproducers can be persisted with -repro-dir for dce-reduce.
// -serve exposes /healthz, /metrics, /progress, /findings,
// /events?since=N, /timeline?since=N, and (with -remarks) /remarks?since=N
// while the campaign runs; -history leaves a fingerprinted snapshot behind
// for dce-trend's cross-run diffing.
//
// -remarks collects optimization remarks (internal/remark): the report
// gains a per-pass applied/missed table with the top miss reasons, every
// finding carries its nearest-miss chain (render them with dce-explain),
// and seed-outcome summaries ride the checkpoint.
//
// -trace FILE records a hierarchical span timeline (seed → unit → phase →
// pass, plus scheduler occupancy) as Chrome trace_event JSON: load it in
// Perfetto (ui.perfetto.dev), or run dce-prof on it for the critical-path
// and worker-occupancy tables. Under -metrics deterministic the trace is
// redacted to its logical skeleton and is byte-identical for a given
// campaign configuration, whatever -j or resume history produced it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcelens"
	"dcelens/internal/cli"
	"dcelens/internal/harness"
	"dcelens/internal/history"
	"dcelens/internal/journal"
	"dcelens/internal/metrics"
	"dcelens/internal/monitor"
	"dcelens/internal/report"
	"dcelens/internal/span"
)

const tool = "dce-campaign"

func main() {
	n := flag.Int("n", 30, "corpus size")
	seed := flag.Int64("seed", 1, "base seed")
	provenance := flag.Bool("provenance", false, "record per-pass profiles and marker provenance")
	remarks := flag.Bool("remarks", false, "collect optimization remarks (nearest-miss chains for dce-explain, remark tables in the report)")
	tracePath := flag.String("trace", "", "write a span timeline (Chrome trace_event JSON; Perfetto/dce-prof) to this file")
	verify := flag.Bool("verify", false, "execute every compiled module against ground truth (miscompile detection; slower)")
	budget := flag.Int("budget", 0, "per-compilation pass-step budget (0: harness default)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: one JSON line appended per completed seed; resumable after a kill at any byte")
	resume := flag.Bool("resume", false, "skip seeds already completed in -checkpoint")
	inject := flag.String("inject", "", "fault-injection spec: kind:pass:seed[:config],... (kind: panic, stall, corrupt)")
	haltAfter := flag.Int("halt-after", 0, "stop after this many seeds (testing aid: simulates a killed campaign; requires -checkpoint)")
	reproDir := flag.String("repro-dir", "", "write each failure's MiniC reproducer into this directory")
	metricsMode := flag.String("metrics", "off", "telemetry report: off, wall, or deterministic (redact wall-clock values)")
	eventsPath := flag.String("events", "", "write a JSONL campaign event log to this file")
	quiet := flag.Bool("quiet", false, "suppress the live progress heartbeat")
	hbInterval := flag.Duration("heartbeat", 2*time.Second, "heartbeat render interval (heartbeat shows only on an interactive stderr)")
	par := cli.Parallelism()
	prof := cli.Profiling()
	mon := cli.Monitoring()
	flag.Parse()
	defer prof.Start(tool)()

	opts := dcelens.CampaignOptions{
		Programs:        *n,
		BaseSeed:        *seed,
		Workers:         par.Workers(tool),
		Shard:           par.Shard(tool),
		Trace:           *provenance,
		Remarks:         *remarks,
		VerifySemantics: *verify,
		StepBudget:      *budget,
	}
	if *inject != "" {
		faults, err := harness.ParseFaults(*inject)
		if err != nil {
			cli.Usagef(tool, "%v", err)
		}
		opts.Faults = faults
	}
	if *resume && *checkpoint == "" {
		cli.Usagef(tool, "-resume requires -checkpoint")
	}
	if *haltAfter > 0 && *checkpoint == "" {
		cli.Usagef(tool, "-halt-after requires -checkpoint")
	}
	if *checkpoint != "" {
		cp, err := harness.LoadCheckpoint(*checkpoint)
		if err != nil {
			cli.Fail(tool, err)
		}
		if !*resume && cp.Len() > 0 {
			cli.Usagef(tool, "checkpoint %s already has %d completed seeds; pass -resume to continue it", *checkpoint, cp.Len())
		}
		opts.Checkpoint = cp
	}
	halted := false
	if *haltAfter > 0 && *haltAfter < opts.Programs {
		opts.Programs = *haltAfter
		halted = true
	}

	var reg *dcelens.MetricsRegistry
	switch *metricsMode {
	case "off":
	case "wall":
		reg = dcelens.NewMetrics()
	case "deterministic":
		reg = dcelens.NewDeterministicMetrics()
	default:
		cli.Usagef(tool, "unknown -metrics mode %q (want off, wall, or deterministic)", *metricsMode)
	}
	showHeartbeat := !*quiet && harness.StderrIsTerminal()
	if (showHeartbeat || mon.Serving()) && reg == nil {
		// The heartbeat and the monitor read progress counters, so they
		// need a registry even when the report section stays off.
		reg = dcelens.NewMetrics()
	}
	opts.Metrics = reg

	var events *dcelens.EventLog
	if *eventsPath != "" {
		var err error
		events, err = metrics.OpenEventLog(*eventsPath, *resume)
		if err != nil {
			cli.Fail(tool, err)
		}
		opts.Events = events
	} else if mon.Serving() {
		// /events needs a log even when none is persisted to disk.
		events = dcelens.NewEventLog(io.Discard)
		opts.Events = events
	}
	if mon.Serving() {
		events.Journal().KeepTail(journal.TailSize)
	}

	var spans *span.Recorder
	if *tracePath != "" {
		var err error
		spans, err = span.Open(*tracePath, *resume, *metricsMode == "deterministic")
		if err != nil {
			cli.Fail(tool, err)
		}
		opts.Spans = spans
	} else if mon.Serving() {
		// /timeline needs a recorder even when no trace file is kept.
		spans = span.New(io.Discard)
		opts.Spans = spans
	}
	if mon.Serving() {
		spans.Journal().KeepTail(journal.TailSize)
	}

	var remarkLog *dcelens.EventLog
	if *remarks && mon.Serving() {
		// /remarks serves the per-seed remark summaries; nothing is
		// persisted to disk, only the tail ring matters.
		remarkLog = dcelens.NewEventLog(io.Discard)
		remarkLog.Journal().KeepTail(journal.TailSize)
		opts.RemarkLog = remarkLog
	}

	// The live surfaces (heartbeat, /progress, ETA) count the seeds this
	// process will actually run: a shard's total is its slice of the corpus.
	liveTotal := opts.Shard.Size(opts.Programs)
	var prog *harness.Progress
	if showHeartbeat || mon.Serving() {
		prog = harness.NewProgress(liveTotal, opts.Workers, reg)
		opts.Progress = prog
	}
	msrv := monitor.New(tool, reg, prog, events)
	msrv.Spans = spans
	msrv.Remarks = remarkLog
	defer mon.Serve(tool, msrv)()

	stopHeartbeat := func() {}
	if showHeartbeat {
		stopHeartbeat = prog.Heartbeat(os.Stderr, *hbInterval, tool)
	}

	if opts.Shard.Sharded() {
		fmt.Fprintf(os.Stderr, "%s: running shard %s of a %d-program campaign (%d seeds here, base seed %d)...\n",
			tool, opts.Shard, opts.Programs, liveTotal, opts.BaseSeed)
	} else {
		fmt.Fprintf(os.Stderr, "%s: running a %d-program campaign (base seed %d)...\n", tool, opts.Programs, opts.BaseSeed)
	}
	c, err := dcelens.RunCampaign(opts)
	stopHeartbeat()
	if err != nil {
		cli.Fail(tool, err)
	}
	if cerr := events.Journal().Close(); cerr != nil {
		cli.Fail(tool, cerr)
	}
	if cerr := spans.Journal().Close(); cerr != nil {
		cli.Fail(tool, cerr)
	}
	if *reproDir != "" {
		if err := writeRepros(*reproDir, c.Stats.Failures); err != nil {
			cli.Fail(tool, err)
		}
	}
	if halted {
		fmt.Fprintf(os.Stderr, "%s: halted after %d seeds; resume with -resume -checkpoint %s\n",
			tool, opts.Programs, *checkpoint)
		fmt.Printf("campaign halted after %d seeds (checkpointed)\n", opts.Programs)
		return
	}
	// A halted campaign never snapshots: its partial finding set would diff
	// as a wave of spurious fixes against the full runs around it.
	mon.WriteSnapshot(tool, history.NewSnapshot(tool, c, reg))
	fmt.Print(dcelens.Report(c))
	if len(c.Stats.Failures) == 0 {
		// Summary includes the failure section only when something failed;
		// always state the verdict here so operators see it was checked.
		fmt.Print("\n" + report.Failures(c.Stats))
	}
	if *metricsMode != "off" {
		fmt.Print("\n" + dcelens.ReportMetrics(reg))
	}
}

// writeRepros persists each failure's reproducer as a dce-reduce-ready
// MiniC file named after its seed and config.
func writeRepros(dir string, failures []harness.Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range failures {
		if f.Source == "" {
			continue
		}
		cfg := strings.NewReplacer(" ", "_", "-", "").Replace(f.Config)
		name := fmt.Sprintf("%s_seed%d_%s.c", f.Kind, f.Seed, cfg)
		header := fmt.Sprintf("// %s\n// reproduce: dce-find -file %s\n", f.String(), name)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(header+f.Source), 0o644); err != nil {
			return err
		}
	}
	return nil
}
