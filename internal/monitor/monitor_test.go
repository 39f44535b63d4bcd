package monitor

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcelens/internal/harness"
	"dcelens/internal/metrics"
	"dcelens/internal/span"
)

// get performs one request against the server's mux and returns the
// response.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %q)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding body %q: %v", rec.Body.String(), err)
	}
}

func TestHealthz(t *testing.T) {
	s := New("dce-test", nil, nil, nil)
	var body struct {
		Status string `json:"status"`
		Tool   string `json:"tool"`
	}
	decode(t, get(t, s, "/healthz"), &body)
	if body.Status != "ok" || body.Tool != "dce-test" {
		t.Fatalf("healthz = %+v, want status ok, tool dce-test", body)
	}
}

func TestMetricsJSONAndExposition(t *testing.T) {
	reg := metrics.New()
	reg.Counter("campaign.seeds.analyzed").Add(7)
	reg.Gauge("campaign.workers").Set(3)
	reg.Histogram("pass.gvn").Observe(2 * time.Millisecond)
	s := New("dce-test", reg, nil, nil)

	var snap metrics.RegistrySnapshot
	decode(t, get(t, s, "/metrics?format=json"), &snap)
	if snap.Counters["campaign.seeds.analyzed"] != 7 {
		t.Fatalf("json counter = %d, want 7", snap.Counters["campaign.seeds.analyzed"])
	}
	if snap.Histograms["pass.gvn"].Count != 1 {
		t.Fatalf("json histogram count = %d, want 1", snap.Histograms["pass.gvn"].Count)
	}

	rec := get(t, s, "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("exposition content type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE dcelens_campaign_seeds_analyzed counter",
		"dcelens_campaign_seeds_analyzed 7",
		"dcelens_campaign_workers 3",
		"# TYPE dcelens_pass_gvn_seconds histogram",
		"dcelens_pass_gvn_seconds_count 1",
		`dcelens_pass_gvn_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsNilRegistry: a server over a nil registry serves empty but
// valid bodies rather than panicking.
func TestMetricsNilRegistry(t *testing.T) {
	s := New("dce-test", nil, nil, nil)
	var snap metrics.RegistrySnapshot
	decode(t, get(t, s, "/metrics?format=json"), &snap)
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("nil registry exposition status = %d", rec.Code)
	}
}

func TestProgressEndpoint(t *testing.T) {
	reg := metrics.New()
	reg.Counter(metrics.CounterSeedsAnalyzed).Add(4)
	reg.Counter(metrics.CounterCrashes).Add(2)
	reg.Histogram(metrics.HistCampaignSeed).Observe(10 * time.Millisecond)
	reg.Counter(metrics.CounterUnits).Add(8)
	reg.Counter(metrics.CounterPassVisited).Add(30)
	reg.Counter(metrics.CounterPassSkipped).Add(70)
	p := harness.NewProgress(10, 2, reg)
	p.AddFindings("f1", "f2")
	s := New("dce-test", reg, p, nil)

	var body harness.View
	decode(t, get(t, s, "/progress"), &body)
	if body.SeedsTotal != 10 || body.SeedsDone != 4 {
		t.Fatalf("progress seeds = %d/%d, want 4/10", body.SeedsDone, body.SeedsTotal)
	}
	if body.Findings != 2 {
		t.Fatalf("progress findings = %d, want 2", body.Findings)
	}
	if body.Failures["crash"] != 2 {
		t.Fatalf("progress failures = %v, want crash=2", body.Failures)
	}
	if !body.EtaKnown {
		t.Fatal("ETA should be known after an observed seed")
	}
	if body.Units != 8 || body.UnitsPerSec <= 0 {
		t.Fatalf("progress units = %d at %g/s, want 8 at > 0", body.Units, body.UnitsPerSec)
	}
	if !body.PassSkipKnown || body.PassSkipRate != 0.7 {
		t.Fatalf("progress skip rate = %g (known=%v), want 0.7", body.PassSkipRate, body.PassSkipKnown)
	}
}

// TestProgressNil: /progress over a nil Progress reports a zero campaign.
func TestProgressNil(t *testing.T) {
	s := New("dce-test", nil, nil, nil)
	var body harness.View
	decode(t, get(t, s, "/progress"), &body)
	if body.SeedsTotal != 0 || body.SeedsDone != 0 || body.EtaKnown {
		t.Fatalf("nil progress = %+v, want zeroes", body)
	}
}

func TestFindingsEndpoint(t *testing.T) {
	p := harness.NewProgress(1, 1, nil)
	p.AddFindings(map[string]any{"kind": "compiler-diff", "seed": 3})
	s := New("dce-test", nil, p, nil)

	var body struct {
		Count    int              `json:"count"`
		Findings []map[string]any `json:"findings"`
	}
	decode(t, get(t, s, "/findings"), &body)
	if body.Count != 1 || len(body.Findings) != 1 {
		t.Fatalf("findings = %+v, want one", body)
	}
	if body.Findings[0]["kind"] != "compiler-diff" {
		t.Fatalf("finding = %v", body.Findings[0])
	}

	// Empty progress serves an empty array, not null.
	empty := New("dce-test", nil, nil, nil)
	rec := get(t, empty, "/findings")
	if !strings.Contains(rec.Body.String(), `"findings": []`) {
		t.Fatalf("empty findings body = %q, want empty array", rec.Body.String())
	}
}

func TestEventsSinceFiltering(t *testing.T) {
	log := metrics.NewEventLog(io.Discard)
	log.Journal().KeepTail(16)
	for i := 0; i < 5; i++ {
		log.Emit("seed_end", map[string]any{"seed": i})
	}
	s := New("dce-test", nil, nil, log)

	rec := get(t, s, "/events?since=3")
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	if got := rec.Header().Get("X-Dcelens-Last-Seq"); got != "5" {
		t.Fatalf("last-seq header = %q, want 5", got)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("since=3 returned %d lines, want 2: %q", len(lines), rec.Body.String())
	}
	var first struct {
		Seq int64 `json:"seq"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Seq != 4 {
		t.Fatalf("first resumed event = %q (err %v), want seq 4", lines[0], err)
	}

	// since defaults to 0: the whole buffered tail.
	all := get(t, s, "/events")
	if n := len(strings.Split(strings.TrimSpace(all.Body.String()), "\n")); n != 5 {
		t.Fatalf("unfiltered tail has %d lines, want 5", n)
	}
	// Caught-up client: empty body, header still reports the head.
	caught := get(t, s, "/events?since=5")
	if caught.Body.Len() != 0 || caught.Header().Get("X-Dcelens-Last-Seq") != "5" {
		t.Fatalf("caught-up read = %q / seq %q", caught.Body.String(), caught.Header().Get("X-Dcelens-Last-Seq"))
	}
}

// TestTailHeaderBoundsBody: while two goroutines emit, a client that
// resumes every poll from the previous response's X-Dcelens-Last-Seq never
// reads a line past its response's header and never reads a line twice,
// which holds only if header and body come from one read of the tail.
func TestTailHeaderBoundsBody(t *testing.T) {
	log := metrics.NewEventLog(io.Discard)
	log.Journal().KeepTail(64)
	h := New("dce-test", nil, nil, log).Handler()
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
					log.Emit("failure", map[string]any{"seed": 1})
				}
			}
		}()
	}
	defer func() {
		close(stop)
		<-done
		<-done
	}()

	var since, delivered int64
	for poll := 0; poll < 3000; poll++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?since="+strconv.FormatInt(since, 10), nil))
		head, err := strconv.ParseInt(rec.Header().Get("X-Dcelens-Last-Seq"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Seq int64 `json:"seq"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Seq > head {
				t.Fatalf("poll %d: line seq %d past the header's %d", poll, ev.Seq, head)
			}
			if ev.Seq <= delivered {
				t.Fatalf("poll %d: line seq %d delivered again (already read up to %d)", poll, ev.Seq, delivered)
			}
			delivered = ev.Seq
		}
		since = head
	}
}

func TestEventsBadSince(t *testing.T) {
	s := New("dce-test", nil, nil, nil)
	for _, bad := range []string{"x", "-1", "1.5"} {
		rec := get(t, s, "/events?since="+bad)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("since=%s status = %d, want 400", bad, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("since=%s content type = %q, want application/json", bad, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("since=%s body = %q (err %v), want a JSON error", bad, rec.Body.String(), err)
		}
	}
}

// TestReadOnlyMethods: every monitoring endpoint rejects non-GET methods
// with 405 and an Allow header; GET keeps working.
func TestReadOnlyMethods(t *testing.T) {
	log := metrics.NewEventLog(io.Discard)
	log.Journal().KeepTail(4)
	s := New("dce-test", metrics.New(), harness.NewProgress(1, 1, nil), log)
	h := s.Handler()
	for _, path := range []string{"/healthz", "/metrics", "/progress", "/findings", "/events"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead} {
			req := httptest.NewRequest(method, path, strings.NewReader("{}"))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s = %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
				t.Fatalf("%s %s Allow = %q, want GET", method, path, allow)
			}
		}
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d after method gating, want 200", path, rec.Code)
		}
	}
}

// TestWriteJSONEncodeError: an unencodable value yields a 500 before any
// body byte and increments the encode-error counter.
func TestWriteJSONEncodeError(t *testing.T) {
	reg := metrics.New()
	rec := httptest.NewRecorder()
	WriteJSON(rec, reg, http.StatusOK, math.NaN()) // NaN has no JSON encoding
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := reg.Counter(CounterEncodeErrors).Value(); got != 1 {
		t.Fatalf("encode-error counter = %d, want 1", got)
	}
	if got := reg.Counter(CounterWriteErrors).Value(); got != 0 {
		t.Fatalf("write-error counter = %d, want 0", got)
	}
}

// failingWriter satisfies http.ResponseWriter but rejects every body write,
// modelling a client that hung up mid-response.
type failingWriter struct {
	header http.Header
}

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteJSONWriteError: a mid-body write failure cannot change the
// committed status, so it surfaces through the write-error counter.
func TestWriteJSONWriteError(t *testing.T) {
	reg := metrics.New()
	WriteJSON(&failingWriter{header: http.Header{}}, reg, http.StatusOK, map[string]int{"a": 1})
	if got := reg.Counter(CounterWriteErrors).Value(); got != 1 {
		t.Fatalf("write-error counter = %d, want 1", got)
	}
	if got := reg.Counter(CounterEncodeErrors).Value(); got != 0 {
		t.Fatalf("encode-error counter = %d, want 0", got)
	}
}

// TestStartEphemeral: Start on port 0 binds an ephemeral port and serves
// over real TCP.
func TestStartEphemeral(t *testing.T) {
	s := New("dce-test", nil, nil, nil)
	run, err := Start("127.0.0.1:0", s)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer run.Close()
	resp, err := http.Get("http://" + run.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz over TCP = %d %q", resp.StatusCode, b)
	}
}

// TestExpositionCumulativeBuckets: bucket counts accumulate and end at the
// +Inf bucket equal to _count.
func TestExpositionCumulativeBuckets(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("pass.x")
	h.Observe(1 * time.Microsecond)
	h.Observe(2 * time.Microsecond)
	h.Observe(1 * time.Hour) // overflow bucket
	text := Exposition(reg.Snapshot())
	if !strings.Contains(text, `dcelens_pass_x_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	if !strings.Contains(text, "dcelens_pass_x_seconds_count 3") {
		t.Fatalf("missing count:\n%s", text)
	}
	// Cumulative: every bucket value must be non-decreasing in render order.
	last := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "dcelens_pass_x_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

// fmtSscan pulls the trailing integer sample value off an exposition line.
func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := json.Number(line[i+1:]).Int64()
	*v = n
	return 1, err
}

func TestPromName(t *testing.T) {
	if got := promName("campaign.seeds.analyzed"); got != "dcelens_campaign_seeds_analyzed" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("pass.dce-sweep"); got != "dcelens_pass_dce_sweep" {
		t.Fatalf("promName = %q", got)
	}
}

func TestTimelineEndpoint(t *testing.T) {
	rec := span.New(io.Discard)
	rec.Journal().KeepTail(16)
	for i := 0; i < 5; i++ {
		rec.Emit(span.Span{Name: "gcc-sim -O2", Cat: span.CatUnit, TID: 1,
			Start: time.Now(), Dur: time.Millisecond,
			Args: []span.Arg{span.Int("seed", i)}})
	}
	s := New("dce-test", nil, nil, nil)
	s.Spans = rec

	resp := get(t, s, "/timeline?since=3")
	if ct := resp.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("timeline content type = %q", ct)
	}
	if got := resp.Header().Get("X-Dcelens-Last-Seq"); got != "5" {
		t.Fatalf("last-seq header = %q, want 5", got)
	}
	lines := strings.Split(strings.TrimSpace(resp.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("since=3 returned %d lines, want 2: %q", len(lines), resp.Body.String())
	}
	// Each served line is one trace_event object a client can accumulate.
	tr, err := span.Parse([]byte(lines[0] + "\n" + lines[1]))
	if err != nil || len(tr.Events) != 2 {
		t.Fatalf("served lines do not parse as trace events: %v", err)
	}

	if bad := get(t, s, "/timeline?since=-1"); bad.Code != http.StatusBadRequest {
		t.Fatalf("since=-1 status = %d, want 400", bad.Code)
	}
	// No recorder attached: empty but valid.
	none := get(t, New("dce-test", nil, nil, nil), "/timeline")
	if none.Code != http.StatusOK || none.Body.Len() != 0 || none.Header().Get("X-Dcelens-Last-Seq") != "0" {
		t.Fatalf("nil recorder timeline = %d %q", none.Code, none.Body.String())
	}
}

// TestOccupancyAndDerivedGauges: worker occupancy (from the scheduler
// probe's busy counters) reaches both /progress and the Prometheus text
// exposition, alongside the derived throughput gauges.
func TestOccupancyAndDerivedGauges(t *testing.T) {
	reg := metrics.New()
	reg.Counter(metrics.CounterUnits).Add(10)
	reg.Counter(metrics.CounterPassVisited).Add(50)
	reg.Counter(metrics.CounterPassSkipped).Add(50)
	start := time.Now()
	p := harness.NewProgress(10, 2, reg)
	time.Sleep(2 * time.Millisecond) // let elapsed > 0
	// Pretend worker 0 was busy for roughly the whole elapsed window.
	reg.Counter(metrics.WorkerBusyCounter(0)).Add(time.Since(start).Nanoseconds())
	s := New("dce-test", reg, p, nil)

	var body harness.View
	decode(t, get(t, s, "/progress"), &body)
	if len(body.WorkerOccupancy) != 2 {
		t.Fatalf("worker_occupancy = %v, want 2 entries", body.WorkerOccupancy)
	}
	if body.WorkerOccupancy[0] <= 0.5 || body.WorkerOccupancy[1] != 0 {
		t.Fatalf("worker_occupancy = %v, want [~1, 0]", body.WorkerOccupancy)
	}

	text := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"# TYPE dcelens_units_per_sec gauge",
		"# TYPE dcelens_pass_skip_rate gauge",
		"dcelens_pass_skip_rate 0.5",
		"# TYPE dcelens_worker_occupancy gauge",
		`dcelens_worker_occupancy{worker="0"}`,
		`dcelens_worker_occupancy{worker="1"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// Deterministic registries keep occupancy out of every surface.
	dreg := metrics.NewDeterministic()
	dp := harness.NewProgress(10, 2, dreg)
	ds := New("dce-test", dreg, dp, nil)
	var dbody harness.View
	decode(t, get(t, ds, "/progress"), &dbody)
	if dbody.WorkerOccupancy != nil {
		t.Fatalf("deterministic worker_occupancy = %v, want absent", dbody.WorkerOccupancy)
	}
	if dtext := get(t, ds, "/metrics").Body.String(); strings.Contains(dtext, "worker_occupancy") {
		t.Fatalf("deterministic exposition leaked occupancy:\n%s", dtext)
	}
}

// TestDerivedGaugesSingleSnapshot pins the derived-gauge drift fix: a
// request computes its derived gauges once, from the same registry snapshot
// its metrics body is built from. Advancing the live registry after the
// snapshot must not leak into the derivation (the old text path re-read the
// live registry at a second scrape point), and the JSON and text renderings
// of the same server state must agree on the derived values.
func TestDerivedGaugesSingleSnapshot(t *testing.T) {
	reg := metrics.New()
	reg.Counter(metrics.CounterPassVisited).Add(90)
	reg.Counter(metrics.CounterPassSkipped).Add(10)
	snap := reg.Snapshot()
	// The campaign races ahead between the snapshot and the derivation.
	reg.Counter(metrics.CounterPassVisited).Add(900)
	var p *harness.Progress
	d := p.View(snap)
	if !d.PassSkipKnown || d.PassSkipRate != 0.1 {
		t.Fatalf("derived skip rate = %v (known=%v), want 0.1 from the snapshot, not the live registry",
			d.PassSkipRate, d.PassSkipKnown)
	}

	// Request-level agreement: the JSON body's derived section and the text
	// exposition report the same value for the same registry state.
	s := New("dce-test", reg, nil, nil)
	var body MetricsReply
	decode(t, get(t, s, "/metrics?format=json"), &body)
	if !body.Derived.PassSkipKnown || body.Derived.PassSkipRate != 0.01 {
		t.Fatalf("json derived skip rate = %v (known=%v), want 0.01",
			body.Derived.PassSkipRate, body.Derived.PassSkipKnown)
	}
	if body.Counters[metrics.CounterPassVisited] != 990 {
		t.Fatalf("json snapshot visited = %d, want 990", body.Counters[metrics.CounterPassVisited])
	}
	text := get(t, s, "/metrics").Body.String()
	if !strings.Contains(text, "dcelens_pass_skip_rate 0.01\n") {
		t.Fatalf("exposition skip rate disagrees with json derived value:\n%s", text)
	}
}

// TestRemarksEndpoint: /remarks serves the remark log's tail with the same
// resumable since-contract as /events, and degrades to an empty body when
// no remark log is attached.
func TestRemarksEndpoint(t *testing.T) {
	rl := metrics.NewEventLog(io.Discard)
	rl.Journal().KeepTail(16)
	rl.Emit("remarks", map[string]any{"seed": int64(7), "applied": map[string]int{"dce": 3}})
	rl.Emit("remarks", map[string]any{"seed": int64(8), "reasons": map[string]int{"alias-unknown": 2}})
	s := New("dce-test", nil, nil, nil)
	s.Remarks = rl

	rec := get(t, s, "/remarks")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-Dcelens-Last-Seq"); got != "2" {
		t.Fatalf("last-seq header = %q, want 2", got)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"seed":7`) || !strings.Contains(lines[1], "alias-unknown") {
		t.Fatalf("remarks body = %q", rec.Body.String())
	}

	rec = get(t, s, "/remarks?since=1")
	if lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"seed":8`) {
		t.Fatalf("resumed remarks body = %q", rec.Body.String())
	}
	if rec := get(t, s, "/remarks?since=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since status = %d, want 400", rec.Code)
	}

	// No remark log attached: empty but valid.
	bare := New("dce-test", nil, nil, nil)
	if rec := get(t, bare, "/remarks"); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "" {
		t.Fatalf("bare /remarks = %d %q, want empty 200", rec.Code, rec.Body.String())
	}
}

// FuzzServeTail: whatever since a client sends, ServeTail answers a 400
// with a JSON error body, or a 200 whose lines have strictly increasing
// seq, each above since and none above X-Dcelens-Last-Seq.
func FuzzServeTail(f *testing.F) {
	for _, since := range []string{"", "0", "1", "3", "5", "-1", "x", "1.5", "bogus", "nope", "+2", "9223372036854775807"} {
		f.Add(since)
	}
	log := metrics.NewEventLog(io.Discard)
	log.Journal().KeepTail(4) // holds seq 3-6: since may fall in the dropped gap
	for i := 0; i < 6; i++ {
		log.Emit("seed_end", map[string]any{"seed": i})
	}
	f.Fuzz(func(t *testing.T, since string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/events?"+url.Values{"since": {since}}.Encode(), nil)
		ServeTail(rec, req, log.Journal())
		switch rec.Code {
		case http.StatusBadRequest:
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("since=%q: 400 body %q is not a JSON error", since, rec.Body.String())
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("since=%q: status %d, want 200 or 400", since, rec.Code)
		}
		prev, err := strconv.ParseInt(since, 10, 64)
		if since != "" && (err != nil || prev < 0) {
			t.Fatalf("since=%q: 200 for a value that is not a non-negative integer", since)
		}
		head, err := strconv.ParseInt(rec.Header().Get("X-Dcelens-Last-Seq"), 10, 64)
		if err != nil {
			t.Fatalf("since=%q: X-Dcelens-Last-Seq: %v", since, err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Seq int64 `json:"seq"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("since=%q: line %q: %v", since, line, err)
			}
			if ev.Seq <= prev || ev.Seq > head {
				t.Fatalf("since=%q: line seq %d after %d, header %d", since, ev.Seq, prev, head)
			}
			prev = ev.Seq
		}
	})
}
