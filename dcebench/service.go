package main

// The service-sweep workload is an operator running long
// compiler-vs-compiler sweeps through dce-serve: two closed-loop clients,
// each submitting a job (gcc-sim and llvm-sim at -O3 only, remarks on,
// one worker, a fresh base seed per job), polling its status and event
// tail at a fixed cadence until it finishes, then fetching its report and
// findings and submitting the next. The server runs two executors with an
// on-disk work directory (checkpoints) and a history directory. Each seed
// costs only two compiles here, so the per-seed checkpoint rewrite, the
// event, span and remark writers, the job engine and the report step
// carry a much larger share of the time than in the campaign workload.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/pipeline"
	"dcelens/internal/report"
	"dcelens/internal/service"
)

const (
	svcClients      = 2  // closed-loop clients, one connection each
	svcExecutors    = 2  // dce-serve -executors
	svcJobPrograms  = 30 // seeds per job: dce-campaign's default -n
	svcCadence      = 50 * time.Millisecond
	svcWarmPrograms = 4 // seeds of the set-up job
	svcStartLimit   = 60 * time.Second
)

func svcSpec(base int64) service.Spec {
	return service.Spec{
		Programs: svcJobPrograms, BaseSeed: base, Workers: 1,
		Personalities: []string{"gcc", "llvm"}, Levels: []string{"O3"}, Remarks: true,
	}
}

// svcOptions is the in-process campaign a job with svcSpec(base) runs.
func svcOptions(base int64) corpus.Options {
	return corpus.Options{
		Programs: svcJobPrograms, BaseSeed: base, Workers: 1,
		Personalities: []pipeline.Personality{pipeline.GCC, pipeline.LLVM},
		Levels:        []pipeline.Level{pipeline.O3},
		Remarks:       true,
	}
}

// server is a dce-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	done   chan struct{}
	hc     *http.Client
	stopMu sync.Once
	err    error
}

// startServer starts dce-serve with its state under dir and returns once
// /healthz answers ok.
func startServer(bin, dir string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no dce-serve binary (-serve-bin)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-executors", strconv.Itoa(svcExecutors),
		"-workdir", filepath.Join(dir, "work"), "-history", filepath.Join(dir, "history"))
	// The server must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dce-serve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{}), hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	limit := time.After(svcStartLimit)
	select {
	case s.base = <-addr:
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("dce-serve exited before serving: %v", s.err)
	case <-limit:
		s.stop()
		return nil, fmt.Errorf("dce-serve did not announce its address within %s", svcStartLimit)
	}
	for {
		code, _, body, _, err := s.call(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK && bytes.Contains(body, []byte(`"status": "ok"`)) {
			return s, nil
		}
		select {
		case <-limit:
			s.stop()
			return nil, fmt.Errorf("dce-serve not healthy within %s (last: %d %v)", svcStartLimit, code, err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM (killing it if the drain takes
// more than a minute) and waits for it to exit. Idempotent.
func (s *server) stop() error {
	s.stopMu.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(time.Minute):
			s.cmd.Process.Kill()
			<-s.done
		}
		s.err = s.cmd.Wait()
		// dce-serve announces its address before it installs its SIGTERM
		// handler, so a server stopped right after set-up may die of the
		// signal instead of draining; with no job submitted that is the
		// same outcome.
		var exit *exec.ExitError
		if errors.As(s.err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				s.err = nil
			}
		}
		s.hc.CloseIdleConnections()
	})
	return s.err
}

func (s *server) call(method, path string, body []byte) (int, http.Header, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, data, time.Since(start), err
}

// client is one closed-loop user of the service.
type client struct {
	s   *server
	rng *rand.Rand
	// fastFinalize polls every millisecond from the last seed on, so the
	// traced run can time the finalize step.
	fastFinalize bool

	submit, poll, tail, finalize []float64 // ms
	jobs                         []*jobRun
}

// rate is the client's closed-loop throughput in programs per second: the
// job size over the median time from submission to the job's end. The
// median keeps one job that met a burst of load on the shared machine
// from moving the figure.
func (c *client) rate() float64 {
	var lat []float64
	for _, jr := range c.jobs {
		lat = append(lat, jr.latency.Seconds())
	}
	return ratio(svcJobPrograms, median(lat))
}

// jobRun is one job as the client saw it.
type jobRun struct {
	spec       service.Spec
	status     service.Status
	latency    time.Duration
	report     string
	findings   int
	failures   int   // "failure" events in the job's event tail
	events     int64 // the event log's head sequence number
	spans      int64 // the span timeline's head sequence number
	checkpoint string
}

func (c *client) get(path string, out *[]float64) (http.Header, []byte, error) {
	code, hdr, data, d, err := c.s.call(http.MethodGet, path, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(data))
	}
	if out != nil {
		*out = append(*out, ms(d))
	}
	return hdr, data, nil
}

func (c *client) runJob(spec service.Spec) (*jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	code, _, data, d, err := c.s.call(http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, fmt.Errorf("POST /jobs: %w", err)
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("POST /jobs: status %d: %s", code, bytes.TrimSpace(data))
	}
	c.submit = append(c.submit, ms(d))
	jr := &jobRun{spec: spec}
	if err := json.Unmarshal(data, &jr.status); err != nil {
		return nil, fmt.Errorf("POST /jobs: %w", err)
	}
	id := jr.status.ID
	var since int64
	var allSeeds time.Time
	for {
		wait := svcCadence
		if c.fastFinalize && jr.status.SeedsDone >= jr.status.SeedsTotal-1 {
			wait = time.Millisecond
		}
		time.Sleep(wait)
		_, data, err := c.get("/jobs/"+id, &c.poll)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &jr.status); err != nil {
			return nil, fmt.Errorf("GET /jobs/%s: %w", id, err)
		}
		hdr, data, err := c.get(fmt.Sprintf("/jobs/%s/events?since=%d", id, since), &c.tail)
		if err != nil {
			return nil, err
		}
		if since, err = strconv.ParseInt(hdr.Get("X-Dcelens-Last-Seq"), 10, 64); err != nil {
			return nil, fmt.Errorf("events of %s: bad X-Dcelens-Last-Seq: %w", id, err)
		}
		jr.failures += countFailureEvents(data)
		now := time.Now()
		if jr.status.State.Terminal() {
			if !allSeeds.IsZero() {
				c.finalize = append(c.finalize, ms(now.Sub(allSeeds)))
			}
			jr.latency = now.Sub(start)
			break
		}
		if allSeeds.IsZero() && jr.status.SeedsDone == jr.status.SeedsTotal {
			allSeeds = now
		}
	}
	jr.events = since
	jr.checkpoint = jr.status.Checkpoint
	c.jobs = append(c.jobs, jr)
	if jr.status.State != service.StateDone {
		return jr, nil
	}
	_, data, err = c.get("/jobs/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	jr.report = string(data)
	_, data, err = c.get("/jobs/"+id+"/findings", nil)
	if err != nil {
		return nil, err
	}
	var f struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("findings of %s: %w", id, err)
	}
	jr.findings = f.Count
	// An empty tail past the head carries the head sequence number.
	hdr, _, err := c.get(fmt.Sprintf("/jobs/%s/timeline?since=%d", id, int64(1)<<62), nil)
	if err != nil {
		return nil, err
	}
	if jr.spans, err = strconv.ParseInt(hdr.Get("X-Dcelens-Last-Seq"), 10, 64); err != nil {
		return nil, fmt.Errorf("timeline of %s: bad X-Dcelens-Last-Seq: %w", id, err)
	}
	return jr, nil
}

// countFailureEvents counts "failure" records in an ndjson event tail.
func countFailureEvents(data []byte) int {
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		var ev struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.Event == "failure" {
			n++
		}
	}
	return n
}

// sweep runs the clients' closed loops, each submitting jobs until budget
// has passed, lets the jobs in flight finish, and returns the wall time
// until the last job finished.
func sweep(clients []*client, budget time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(budget)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := c.runJob(svcSpec(c.rng.Int63n(baseRange))); err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

func newClients(s *server, in *rand.Rand, fast bool) []*client {
	cs := make([]*client, svcClients)
	for k := range cs {
		cs[k] = &client{s: s, rng: rand.New(rand.NewSource(in.Int63())), fastFinalize: fast}
	}
	return cs
}

// countJobs checks that every job reached done and adds its units to the
// operation counts; it returns the programs of the finished jobs.
func countJobs(r *result, clients []*client) int {
	programs := 0
	for _, c := range clients {
		for _, jr := range c.jobs {
			units := jr.spec.Programs * len(jr.spec.Personalities) * len(jr.spec.Levels)
			r.attempted += units
			done := jr.status.State == service.StateDone
			r.check(done, "job %s (base %d) ended %s: %s", jr.status.ID, jr.spec.BaseSeed, jr.status.State, jr.status.Error)
			if !done {
				r.failed += units
				continue
			}
			r.failed += jr.failures
			programs += jr.spec.Programs
		}
	}
	return programs
}

// checkReport compares the sampled job's /report with an in-process run of
// the same spec, byte for byte.
func checkReport(r *result, jr *jobRun, c *corpus.Campaign) {
	r.check(report.Summary(c) == jr.report, "job %s (base %d): /report differs from an in-process corpus.Run of the same spec",
		jr.status.ID, jr.spec.BaseSeed)
}

func runService(e *env, r *result) error {
	in := e.inputs()
	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		dir, err := e.subdir(fmt.Sprintf("serve-%d", i))
		if err != nil {
			return err
		}
		// Set-up ends once the server is healthy and has run one small job
		// to completion.
		start := time.Now()
		s, err := startServer(e.serveBin, dir)
		if err != nil {
			return err
		}
		warm := &client{s: s}
		spec := svcSpec(in.Int63n(baseRange))
		spec.Programs = svcWarmPrograms
		jr, err := warm.runJob(spec)
		if err != nil {
			s.stop()
			return err
		}
		r.check(jr.status.State == service.StateDone, "set-up job %s ended %s: %s", jr.status.ID, jr.status.State, jr.status.Error)
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("dce-serve exit: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()
	r.set("setup_s", "s", r.timing("setup", "s", setups))

	clients := newClients(srv, in, false)
	rss := sampleRSS(strconv.Itoa(srv.cmd.Process.Pid))
	wall, err := sweep(clients, e.budget)
	if err := errors.Join(err, rss.stop(r)); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("dce-serve exit: %w", err)
	}
	programs := countJobs(r, clients)
	var latency []float64
	rate := 0.0
	for _, c := range clients {
		for _, jr := range c.jobs {
			latency = append(latency, ms(jr.latency))
		}
		rate += c.rate()
	}
	r.timing("job", "ms", latency)
	r.notef("%d programs in finished jobs, %.3fs until the last finished", programs, wall.Seconds())
	r.set("programs_per_s", "programs/s", rate)
	r.print("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))

	if len(clients[0].jobs) == 0 {
		return fmt.Errorf("client 0 finished no job")
	}
	sample := clients[0].jobs[0]
	c, err := corpus.Run(svcOptions(sample.spec.BaseSeed))
	if err != nil {
		return err
	}
	checkReport(r, sample, c)
	return nil
}

func traceService(e *env, r *result) error {
	in := e.inputs()
	dir, err := e.subdir("serve")
	if err != nil {
		return err
	}
	srv, err := startServer(e.serveBin, dir)
	if err != nil {
		return err
	}
	defer srv.stop()
	clients := newClients(srv, in, true)
	cpu0, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	wall, err := sweep(clients, e.budget/2)
	if err != nil {
		return err
	}
	cpu1, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("dce-serve exit: %w", err)
	}
	countJobs(r, clients)
	var submit, poll, tail, finalize []float64
	var events, spans, seeds int64
	for _, c := range clients {
		submit = append(submit, c.submit...)
		poll = append(poll, c.poll...)
		tail = append(tail, c.tail...)
		finalize = append(finalize, c.finalize...)
		for _, jr := range c.jobs {
			events += jr.events
			spans += jr.spans
			seeds += int64(jr.spec.Programs)
		}
	}
	// The service layer's own numbers exist on this workload only, so they
	// are printed rather than put on the JSON line.
	r.print("service.submit_ms", "ms", r.timing("service.submit", "ms", submit))
	r.print("service.poll_p50_ms", "ms", r.timing("service.poll", "ms", poll))
	r.print("service.poll_p95_ms", "ms", percentile(poll, 95))
	r.timing("service.event_tail", "ms", tail)
	r.print("service.finalize_ms", "ms", r.timing("service.finalize", "ms", finalize))
	r.set("metrics.events_per_seed", "count", ratio(float64(events), float64(seeds)))
	r.set("span.spans_per_seed", "count", ratio(float64(spans), float64(seeds)))
	r.set("cpu_util", "ratio", (cpu1-cpu0)/(wall.Seconds()*float64(runtime.NumCPU())))

	if len(clients[0].jobs) == 0 {
		return fmt.Errorf("client 0 finished no job")
	}
	sample := clients[0].jobs[0]
	start := time.Now()
	cp, err := harness.LoadCheckpoint(sample.checkpoint)
	load := time.Since(start)
	if err != nil {
		return err
	}
	r.check(cp.Len() == sample.spec.Programs, "job %s: checkpoint holds %d seeds, want %d", sample.status.ID, cp.Len(), sample.spec.Programs)
	ckdir, err := e.subdir("ckpt")
	if err != nil {
		return err
	}
	if _, err := ckptReplay(r, ckdir, cp.Meta(), cp.Seeds(), func(seed int64) (any, error) {
		var raw json.RawMessage
		_, err := cp.Restore(seed, &raw)
		return raw, err
	}); err != nil {
		return err
	}
	r.set("harness.ckpt_load_ms", "ms", ms(load))

	tc, err := tracedCampaign(r, svcOptions(sample.spec.BaseSeed), svcJobPrograms)
	if err != nil {
		return err
	}
	checkReport(r, sample, tc.c)
	compareOutcomes(r, cp, tc.c)
	hdir, err := e.subdir("history")
	if err != nil {
		return err
	}
	if err := reportLayers(r, tc.c, hdir); err != nil {
		return err
	}
	r.set("pipeline.config_ms", "ms", tc.rp.t.msPer("pipeline.config", tc.rp.t.count["pipeline.config"]))
	return tc.writeSpans(e)
}

// compareOutcomes is the replay-fidelity check for the service: the
// in-process campaign the replay matched must report the same
// per-(seed, config) missed and primary counts as the job's checkpoint.
func compareOutcomes(r *result, cp *harness.Checkpoint, c *corpus.Campaign) {
	for _, o := range c.Outcomes {
		var got corpus.SeedOutcome
		ok, err := cp.Restore(o.Seed, &got)
		if !ok || err != nil {
			r.check(false, "fidelity: seed %d missing from the job checkpoint (%v)", o.Seed, err)
			continue
		}
		a, _ := json.Marshal(o.Configs)
		b, _ := json.Marshal(got.Configs)
		r.check(bytes.Equal(a, b), "fidelity: seed %d: job outcome %s, in-process %s", o.Seed, b, a)
	}
}
