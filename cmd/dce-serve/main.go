// dce-serve runs campaigns as a service: a resilient job engine behind an
// HTTP API. Campaign specs are POSTed to /jobs and admitted into a bounded
// queue — a full queue answers 429 with Retry-After instead of buffering
// without bound — then executed by a fixed pool with per-job budgets
// (wall-clock deadline, seed cap, worker cap), automatic
// retry-with-backoff from the job's JSON checkpoint after a crash, and
// per-job observability (/jobs/{id}, /jobs/{id}/events, .../findings,
// .../report). Finished jobs land in the run-history directory so
// dce-trend diffs across them.
//
// Usage:
//
//	dce-serve -addr 127.0.0.1:8080 -history runs/ -workdir state/
//	curl -XPOST localhost:8080/jobs -d '{"programs": 30, "base_seed": 1}'
//	curl localhost:8080/jobs/job-1
//	curl localhost:8080/jobs/job-1/report
//
// On SIGTERM (or SIGINT) the service drains gracefully: admission stops
// (/healthz reports "draining", new submissions get 503), running jobs
// stop at the next seed boundary with every in-flight seed checkpointed,
// queued jobs are cancelled, and the process exits 0. Nothing is lost:
// resubmitting a drained job's spec with its checkpoint path resumes
// exactly the unrun seeds and reports byte-identically to an
// uninterrupted run. With -cpuprofile or -memprofile, the profile is
// written on that clean exit, after the drain; the heap profile still
// holds every job the engine kept.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dcelens/internal/cli"
	"dcelens/internal/service"
)

const tool = "dce-serve"

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address (port 0 picks one)")
	queue := flag.Int("queue", 8, "admission queue depth (full queue answers 429)")
	executors := flag.Int("executors", 2, "jobs run concurrently")
	maxSeeds := flag.Int("max-seeds", 1000, "per-job seed cap (larger specs are rejected)")
	maxWorkers := flag.Int("max-workers", 0, "per-job worker cap (0: GOMAXPROCS)")
	maxAttempts := flag.Int("max-attempts", 3, "per-job run attempts (first run + retries)")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "first retry delay (doubles per attempt)")
	workDir := flag.String("workdir", "", "directory for per-job checkpoint files (empty: in-memory)")
	historyDir := flag.String("history", "", "directory for finished jobs' run-history snapshots (see dce-trend)")
	prof := cli.Profiling()
	flag.Parse()
	stopProf := prof.Start(tool)

	if *workDir != "" {
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			cli.Fail(tool, err)
		}
	}
	eng := service.New(tool, service.Limits{
		QueueDepth:  *queue,
		Executors:   *executors,
		MaxSeeds:    *maxSeeds,
		MaxWorkers:  *maxWorkers,
		MaxAttempts: *maxAttempts,
		Backoff:     *backoff,
		WorkDir:     *workDir,
		HistoryDir:  *historyDir,
	})
	eng.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fail(tool, err)
	}
	srv := &http.Server{Handler: service.NewServer(eng).Handler()}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			cli.Fail(tool, serr)
		}
	}()
	fmt.Fprintf(os.Stderr, "%s: serving on http://%s\n", tool, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	got := <-sig
	fmt.Fprintf(os.Stderr, "%s: %s received, draining...\n", tool, got)
	// Drain with the HTTP server still up: /healthz reports "draining" and
	// job status stays queryable while running jobs checkpoint and park.
	eng.Drain()
	if err := srv.Close(); err != nil {
		cli.Fail(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", tool)
	// The heap profile's final collection would free every job if nothing
	// referenced the engine any more, so it is written while eng is live.
	stopProf()
	runtime.KeepAlive(eng)
}
