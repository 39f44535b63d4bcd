package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dcelens/internal/harness"
	"dcelens/internal/journal"
	"dcelens/internal/metrics"
	"dcelens/internal/monitor"
	"dcelens/internal/span"
)

func newTestServer(t *testing.T, l Limits, start bool) (*Server, *Engine) {
	t.Helper()
	e := New("dce-serve-test", l)
	if start {
		e.Start()
	}
	t.Cleanup(e.Drain)
	return NewServer(e), e
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	return rec
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

func TestHTTPSubmitLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Limits{Executors: 1}, true)

	rec := do(t, s, http.MethodPost, "/jobs",
		`{"programs": 3, "base_seed": 1, "personalities": ["gcc"], "levels": ["O1", "O2", "O3"]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", rec.Code, rec.Body.String())
	}
	var st Status
	decodeBody(t, rec, &st)
	if st.ID != "job-1" || st.State.Terminal() {
		t.Fatalf("submitted status = %+v", st)
	}

	// A not-yet-done job has no report.
	if rec := do(t, s, http.MethodGet, "/jobs/job-1/report", ""); rec.Code != http.StatusConflict && rec.Code != http.StatusOK {
		t.Fatalf("early report = %d, want 409 (or 200 if already done)", rec.Code)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		rec = do(t, s, http.MethodGet, "/jobs/job-1", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		decodeBody(t, rec, &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone || st.SeedsDone != 3 {
		t.Fatalf("terminal status = %+v, want done with 3 seeds", st)
	}

	var list struct {
		Count int      `json:"count"`
		Jobs  []Status `json:"jobs"`
	}
	decodeBody(t, do(t, s, http.MethodGet, "/jobs", ""), &list)
	if list.Count != 1 || list.Jobs[0].ID != "job-1" {
		t.Fatalf("job list = %+v", list)
	}

	rep := do(t, s, http.MethodGet, "/jobs/job-1/report", "")
	if rep.Code != http.StatusOK || !strings.Contains(rep.Body.String(), "Instrumented blocks") {
		t.Fatalf("report = %d %q", rep.Code, rep.Body.String())
	}

	var findings struct {
		Count    int `json:"count"`
		Findings []any
	}
	decodeBody(t, do(t, s, http.MethodGet, "/jobs/job-1/findings", ""), &findings)
	if findings.Count != len(findings.Findings) {
		t.Fatalf("findings = %+v", findings)
	}

	ev := do(t, s, http.MethodGet, "/jobs/job-1/events?since=0", "")
	if ev.Code != http.StatusOK || ev.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("events = %d, content type %q", ev.Code, ev.Header().Get("Content-Type"))
	}
	if !strings.Contains(ev.Body.String(), "campaign_begin") || !strings.Contains(ev.Body.String(), "campaign_end") {
		t.Fatalf("events tail missing campaign bookends:\n%s", ev.Body.String())
	}
	if ev.Header().Get("X-Dcelens-Last-Seq") == "" {
		t.Fatal("events missing last-seq header")
	}
	if bad := do(t, s, http.MethodGet, "/jobs/job-1/events?since=nope", ""); bad.Code != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", bad.Code)
	}

	// Service metrics: exposition and JSON forms.
	mtx := do(t, s, http.MethodGet, "/metrics", "")
	if !strings.Contains(mtx.Body.String(), "dcelens_service_jobs_submitted 1") {
		t.Fatalf("metrics exposition missing submit counter:\n%s", mtx.Body.String())
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	decodeBody(t, do(t, s, http.MethodGet, "/metrics?format=json", ""), &snap)
	if snap.Counters[CounterDone] != 1 {
		t.Fatalf("metrics json done = %d, want 1", snap.Counters[CounterDone])
	}
}

// TestHTTPRemarks: a job submitted with "remarks": true exposes its
// campaign-wide remark summary once done; a job without the flag answers
// an explicit remarks=false, and an unfinished job answers 409 like
// /report.
func TestHTTPRemarks(t *testing.T) {
	s, _ := newTestServer(t, Limits{Executors: 1}, true)

	if rec := do(t, s, http.MethodPost, "/jobs",
		`{"programs": 2, "base_seed": 1, "remarks": true, "personalities": ["gcc"], "levels": ["O3"]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/jobs",
		`{"programs": 2, "base_seed": 1, "personalities": ["gcc"], "levels": ["O3"]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", rec.Code, rec.Body.String())
	}

	wait := func(id string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			var st Status
			decodeBody(t, do(t, s, http.MethodGet, "/jobs/"+id, ""), &st)
			if st.State == StateDone {
				return
			}
			if st.State.Terminal() {
				t.Fatalf("%s ended %s", id, st.State)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck in %s", id, st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait("job-1")
	wait("job-2")

	var reply struct {
		ID      string `json:"id"`
		Remarks bool   `json:"remarks"`
		Summary struct {
			Applied map[string]int `json:"applied"`
			Missed  map[string]int `json:"missed"`
			Reasons map[string]int `json:"reasons"`
		} `json:"summary"`
	}
	rec := do(t, s, http.MethodGet, "/jobs/job-1/remarks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("remarks = %d (%s)", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &reply)
	if !reply.Remarks || len(reply.Summary.Missed) == 0 || reply.Summary.Reasons["side-effects"] == 0 {
		t.Fatalf("remark summary = %+v, want collected data with a side-effects bucket", reply)
	}

	rec = do(t, s, http.MethodGet, "/jobs/job-2/remarks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("remarks without flag = %d (%s)", rec.Code, rec.Body.String())
	}
	reply.Remarks, reply.Summary.Missed = true, nil // must be overwritten/absent
	decodeBody(t, rec, &reply)
	if reply.Remarks || len(reply.Summary.Missed) != 0 {
		t.Fatalf("remarks-off job reply = %+v, want explicit remarks=false", reply)
	}

	// A job that cannot have finished (no executors) answers 409.
	queued, _ := newTestServer(t, Limits{}, false)
	if rec := do(t, queued, http.MethodPost, "/jobs", `{"programs": 1, "remarks": true}`); rec.Code != http.StatusAccepted {
		t.Fatalf("queued submit = %d", rec.Code)
	}
	if rec := do(t, queued, http.MethodGet, "/jobs/job-1/remarks", ""); rec.Code != http.StatusConflict {
		t.Fatalf("remarks on a queued job = %d, want 409", rec.Code)
	}
}

// TestHTTPBackpressure: the admission contract over HTTP — 429 with
// Retry-After on a full queue, 503 while draining, health transitions
// ok → degraded → draining.
func TestHTTPBackpressure(t *testing.T) {
	s, e := newTestServer(t, Limits{QueueDepth: 1}, false) // no executors: queue stays full

	var health HealthReply
	decodeBody(t, do(t, s, http.MethodGet, "/healthz", ""), &health)
	if health.Status != "ok" || health.QueueCap != 1 {
		t.Fatalf("healthz = %+v, want ok with cap 1", health)
	}

	if rec := do(t, s, http.MethodPost, "/jobs", `{"programs": 1}`); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec := do(t, s, http.MethodPost, "/jobs", `{"programs": 1}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit on full queue = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	decodeBody(t, rec, &apiErr)
	if !strings.Contains(apiErr.Error, "queue full") {
		t.Fatalf("429 body = %+v", apiErr)
	}

	decodeBody(t, do(t, s, http.MethodGet, "/healthz", ""), &health)
	if health.Status != "degraded" || health.QueueDepth != 1 || health.Rejected != 1 {
		t.Fatalf("healthz with full queue = %+v, want degraded/1/1", health)
	}

	e.Drain()
	decodeBody(t, do(t, s, http.MethodGet, "/healthz", ""), &health)
	if health.Status != "draining" || health.Cancelled != 1 {
		t.Fatalf("healthz after drain = %+v, want draining with 1 cancelled", health)
	}
	if rec := do(t, s, http.MethodPost, "/jobs", `{"programs": 1}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", rec.Code)
	}
}

func TestHTTPErrors(t *testing.T) {
	s, _ := newTestServer(t, Limits{}, false)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/jobs", `{not json`, http.StatusBadRequest},
		{http.MethodPost, "/jobs", `{"programs": 1, "bogus": true}`, http.StatusBadRequest},
		{http.MethodPost, "/jobs", `{"programs": 0}`, http.StatusBadRequest},
		{http.MethodPost, "/jobs", `{"programs": 1, "personalities": ["icc"]}`, http.StatusBadRequest},
		{http.MethodGet, "/jobs/nope", "", http.StatusNotFound},
		{http.MethodGet, "/jobs/nope/report", "", http.StatusNotFound},
		{http.MethodPost, "/jobs/nope/cancel", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		rec := do(t, s, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s content type = %q, want application/json", tc.method, tc.path, ct)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		decodeBody(t, rec, &apiErr)
		if apiErr.Error == "" {
			t.Errorf("%s %s: no JSON error body", tc.method, tc.path)
		}
	}
}

// TestHTTPMethodGating: the ServeMux method patterns enforce the verb
// contract with 405 + Allow, matching the monitor's read-only rule.
func TestHTTPMethodGating(t *testing.T) {
	s, _ := newTestServer(t, Limits{}, false)
	cases := []struct {
		method, path string
		wantAllow    string
	}{
		{http.MethodPut, "/jobs", "POST"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodGet, "/jobs/job-1/cancel", "POST"},
	}
	for _, tc := range cases {
		rec := do(t, s, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, tc.wantAllow) {
			t.Errorf("%s %s Allow = %q, want containing %q", tc.method, tc.path, allow, tc.wantAllow)
		}
	}
}

// TestHTTPCancel: POST /jobs/{id}/cancel on a queued job (no executors)
// parks it cancelled immediately.
func TestHTTPCancel(t *testing.T) {
	s, _ := newTestServer(t, Limits{}, false)
	rec := do(t, s, http.MethodPost, "/jobs", `{"programs": 1}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	var st Status
	decodeBody(t, do(t, s, http.MethodPost, "/jobs/job-1/cancel", ""), &st)
	if st.State != StateCancelled {
		t.Fatalf("cancelled state = %s, want cancelled", st.State)
	}
}

// TestHTTPProgressAndTimeline: the per-job progress and span-timeline
// endpoints — S2's GET /jobs/{id}/progress serves the monitor's reply
// shape, and /jobs/{id}/timeline serves a resumable trace_event tail that
// survives the whole job lifecycle.
func TestHTTPProgressAndTimeline(t *testing.T) {
	s, _ := newTestServer(t, Limits{Executors: 1}, true)

	rec := do(t, s, http.MethodPost, "/jobs",
		`{"programs": 2, "base_seed": 1, "personalities": ["gcc"], "levels": ["O1"]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(60 * time.Second)
	var st Status
	for {
		decodeBody(t, do(t, s, http.MethodGet, "/jobs/job-1", ""), &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job = %+v, want done", st)
	}

	var prog harness.View
	pr := do(t, s, http.MethodGet, "/jobs/job-1/progress", "")
	if pr.Code != http.StatusOK {
		t.Fatalf("progress = %d (%s)", pr.Code, pr.Body.String())
	}
	// A done job's view was rendered as it ended: its elapsed time and
	// rates no longer move.
	time.Sleep(5 * time.Millisecond)
	if again := do(t, s, http.MethodGet, "/jobs/job-1/progress", ""); again.Body.String() != pr.Body.String() {
		t.Fatalf("a done job's progress moved:\n%s\nthen\n%s", pr.Body.String(), again.Body.String())
	}
	decodeBody(t, pr, &prog)
	if prog.SeedsTotal != 2 || prog.SeedsDone != 2 || prog.Units == 0 {
		t.Fatalf("progress = %+v, want 2/2 seeds with units counted", prog)
	}
	// Job registries are deterministic; occupancy must stay absent.
	if prog.WorkerOccupancy != nil {
		t.Fatalf("worker_occupancy = %v, want absent for a deterministic job registry", prog.WorkerOccupancy)
	}

	tl := do(t, s, http.MethodGet, "/jobs/job-1/timeline?since=0", "")
	if tl.Code != http.StatusOK || tl.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("timeline = %d, content type %q", tl.Code, tl.Header().Get("Content-Type"))
	}
	if tl.Header().Get("X-Dcelens-Last-Seq") == "0" {
		t.Fatal("timeline recorded nothing")
	}
	tr, err := span.Parse(tl.Body.Bytes())
	if err != nil {
		t.Fatalf("timeline tail does not parse as trace events: %v", err)
	}
	var units, attempts int
	for _, e := range tr.Events {
		switch e.Cat {
		case span.CatUnit:
			units++
		case span.CatJob:
			if e.Name == "attempt" {
				attempts++
			}
		}
	}
	if units != 2 || attempts != 1 {
		t.Fatalf("timeline has %d unit spans and %d attempt spans, want 2 and 1", units, attempts)
	}

	if bad := do(t, s, http.MethodGet, "/jobs/job-1/timeline?since=x", ""); bad.Code != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", bad.Code)
	}
	if missing := do(t, s, http.MethodGet, "/jobs/nope/progress", ""); missing.Code != http.StatusNotFound {
		t.Fatalf("unknown job progress = %d, want 404", missing.Code)
	}
}

// TestFinishedJobRetention: a finished job keeps what its endpoints serve
// and nothing else. Of fourteen jobs that run and one cancelled while
// queued, only the newest keptTails that ran keep their event and span
// tails; an older job's /events and /timeline answer an empty tail at its
// head seq, and its other endpoints answer what they answered as it ended.
// A poller reads every job's endpoints meanwhile, so the race detector sees
// eviction run beside the handlers.
func TestFinishedJobRetention(t *testing.T) {
	s, e := newTestServer(t, Limits{Executors: 1, WorkDir: t.TempDir()}, true)
	routes := []string{"", "/report", "/findings", "/remarks", "/progress", "/events?since=0", "/timeline?since=0"}

	var mu sync.Mutex
	var ids []string
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			mu.Lock()
			known := ids
			mu.Unlock()
			for _, id := range known {
				for _, route := range routes {
					if rec := do(t, s, http.MethodGet, "/jobs/"+id+route, ""); rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
						t.Errorf("GET /jobs/%s%s = %d (%s)", id, route, rec.Code, rec.Body.String())
					}
				}
			}
		}
	}()

	submit := func(spec Spec) *Job {
		t.Helper()
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		ids = append(ids, j.ID)
		mu.Unlock()
		return j
	}
	type ended struct {
		id            string
		events, spans int64 // head seqs
		bodies        []string
	}
	var ran []ended // in the order the jobs ended
	record := func(j *Job) {
		t.Helper()
		waitTerminal(t, j)
		r := ended{id: j.ID}
		_, r.events = j.Events().Journal().Since(math.MaxInt64)
		_, r.spans = j.Spans().Journal().Since(math.MaxInt64)
		for _, route := range routes[:5] {
			r.bodies = append(r.bodies, do(t, s, http.MethodGet, "/jobs/"+j.ID+route, "").Body.String())
		}
		ran = append(ran, r)
	}
	sweep := func(i int) Spec {
		return Spec{Programs: 2, BaseSeed: int64(10 * i), Personalities: []string{"gcc", "llvm"}, Levels: []string{"O3"}, Remarks: true}
	}

	for i := 1; i <= 10; i++ {
		record(submit(sweep(i)))
	}
	// A job cancelled while queued behind a running one, which is then
	// cancelled too.
	long := submit(fastSpec(40))
	for deadline := time.Now().Add(30 * time.Second); long.Status().SeedsDone == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no seed completed before the cancel")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submit(sweep(11))
	if j, _ := e.Cancel(queued.ID); j.State() != StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", j.State())
	}
	e.Cancel(long.ID)
	record(long)
	for i := 12; i <= 14; i++ {
		record(submit(sweep(i)))
	}
	e.Drain() // every ended job has been retired
	close(stop)
	poller.Wait()

	if len(e.tailed) != keptTails {
		t.Fatalf("%d finished jobs keep tails, want %d", len(e.tailed), keptTails)
	}
	oldest := len(ran) - keptTails
	for k, r := range ran {
		j, _ := e.Job(r.id)
		j.mu.Lock()
		if j.cp != nil || j.reg != nil || j.progress != nil {
			t.Errorf("%s still holds its checkpoint, registry or progress", r.id)
		}
		j.mu.Unlock()
		kept := k >= oldest
		if kept && e.tailed[k-oldest] != j {
			t.Errorf("tails kept for %s, want %s", e.tailed[k-oldest].ID, r.id)
		}
		for i, head := range []int64{r.events, r.spans} {
			route := routes[5+i]
			rec := do(t, s, http.MethodGet, "/jobs/"+r.id+route, "")
			if rec.Code != http.StatusOK || rec.Header().Get("X-Dcelens-Last-Seq") != strconv.FormatInt(head, 10) {
				t.Errorf("%s%s = %d at seq %s, want 200 at %d", r.id, route, rec.Code, rec.Header().Get("X-Dcelens-Last-Seq"), head)
			}
			if kept == (rec.Body.Len() == 0) {
				t.Errorf("%s%s: %d bytes of tail, kept %v", r.id, route, rec.Body.Len(), kept)
			}
		}
		for i, route := range routes[:5] {
			if got := do(t, s, http.MethodGet, "/jobs/"+r.id+route, "").Body.String(); got != r.bodies[i] {
				t.Errorf("/jobs/%s%s changed after the job ended:\n%s\nthen\n%s", r.id, route, r.bodies[i], got)
			}
		}
	}
	for _, jl := range []*journal.Journal{queued.Events().Journal(), queued.Spans().Journal()} {
		if tail, head := jl.Since(0); tail != nil || head != 0 {
			t.Errorf("job cancelled while queued holds a tail: %d entries at seq %d", len(tail), head)
		}
	}

	// What an evicted job still holds: the heap a collection frees once the
	// engine forgets it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e.mu.Lock()
	for _, r := range ran[:oldest] {
		delete(e.jobs, r.id)
	}
	e.mu.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("heap retained per finished job beyond the newest %d: %.1f KiB (mean of %d)",
		keptTails, float64(int64(before.HeapAlloc)-int64(after.HeapAlloc))/1024/float64(oldest), oldest)
}

// jsonKeys returns the top-level keys of a JSON object body, in the order
// they were written.
func jsonKeys(t *testing.T, what string, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s: %q is not a JSON object", what, body)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	return keys
}

// TestLiveSurfaceKeys pins the JSON shape of every live campaign view: the
// keys of the monitor's /progress and /metrics?format=json, of its derived
// gauges, and of the service's /jobs/{id}/progress, in the order served.
func TestLiveSurfaceKeys(t *testing.T) {
	progressKeys := []string{"seeds_total", "seeds_done", "workers", "findings", "failures",
		"elapsed_ms", "eta_ms", "eta_known", "units", "units_per_sec", "pass_skip_rate", "pass_skip_known"}
	derivedKeys := []string{"units_per_sec", "pass_skip_rate", "pass_skip_known"}
	check := func(what string, body []byte, want []string) {
		t.Helper()
		if got := jsonKeys(t, what, body); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s keys = %v, want %v", what, got, want)
		}
	}
	get := func(h http.Handler, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d (%s)", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	// A wall-clock campaign also serves per-worker occupancy, last.
	reg := metrics.New()
	reg.Counter(metrics.CounterUnits).Add(4)
	reg.Gauge("campaign.workers").Set(2)
	reg.Histogram(metrics.HistCampaignSeed).Observe(time.Millisecond)
	p := harness.NewProgress(10, 2, reg)
	time.Sleep(time.Millisecond) // occupancy needs elapsed time
	mon := monitor.New("dce-test", reg, p, nil).Handler()
	check("/progress", get(mon, "/progress"), append(progressKeys, "worker_occupancy"))
	body := get(mon, "/metrics?format=json")
	check("/metrics?format=json", body, []string{"counters", "gauges", "histograms", "derived"})
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	check("derived", reply["derived"], append(derivedKeys, "worker_occupancy"))

	// Job registries are deterministic, so no occupancy.
	s, _ := newTestServer(t, Limits{Executors: 1}, true)
	if rec := do(t, s, http.MethodPost, "/jobs",
		`{"programs": 1, "base_seed": 1, "personalities": ["gcc"], "levels": ["O1"]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", rec.Code, rec.Body.String())
	}
	j, _ := s.Engine.Job("job-1")
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job ended %s", st)
	}
	check("/jobs/job-1/progress", get(s.Handler(), "/jobs/job-1/progress"), progressKeys)
}

// FuzzSubmitSpec: whatever body a client posts to /jobs, a fresh engine
// with no executors answers 202 or a 400 with a JSON error body, never a
// 500 or a panic, and an accepted job's status carries a spec that
// decodes back to itself with unknown fields disallowed.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		`{"programs": 3, "base_seed": 1, "personalities": ["gcc"], "levels": ["O1", "O2", "O3"]}`,
		`{"programs": 2, "base_seed": 1, "remarks": true, "personalities": ["gcc"], "levels": ["O3"]}`,
		`{"programs": 1}`,
		`{"programs": 2, "workers": 99, "max_attempts": 99}`,
		`{"programs": 2, "chaos": {"crash_at_seed": 1}, "inject": "crash:gvn:1", "deadline_ms": 5}`,
		`{not json`,
		`{"programs": 1, "bogus": true}`,
		`{"programs": 0}`,
		`{"programs": 1, "personalities": ["icc"]}`,
		`{"programs": 1, "levels": ["O9"]}`,
		`{"programs": 1, "inject": "explode:gvn:1"}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		NewServer(New("dce-serve-fuzz", Limits{})).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			var apiErr struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
				t.Fatalf("body %q: 400 body %q is not a JSON error", body, rec.Body.String())
			}
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("body %q: status %d (%s), want 202 or 400", body, rec.Code, rec.Body.String())
		}
		var st Status
		decodeBody(t, rec, &st)
		b, err := json.Marshal(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var back Spec
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("body %q: accepted spec %s does not decode: %v", body, b, err)
		}
		if !reflect.DeepEqual(back, st.Spec) {
			t.Fatalf("body %q: accepted spec %+v decodes back as %+v", body, st.Spec, back)
		}
	})
}
