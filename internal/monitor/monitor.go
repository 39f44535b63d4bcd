// Package monitor is the live campaign monitoring server: a stdlib-only
// net/http server embedded in a running campaign (dce-campaign -serve) that
// exposes the telemetry the campaign is already collecting — the metrics
// registry, the harness progress view, and the tails of the event log, the
// span timeline and the remark log — over seven read-only endpoints:
//
//	/healthz            liveness: tool name and uptime
//	/metrics            Prometheus-style text exposition of the registry
//	/metrics?format=json  the registry snapshot as JSON (plus derived gauges)
//	/progress           seeds done/total, failure-kind counts, ETA, occupancy
//	/findings           the findings discovered so far, as JSON
//	/events?since=N     resumable tail of the event log (JSONL, seq > N)
//	/timeline?since=N   resumable tail of the span timeline (JSONL, seq > N)
//	/remarks?since=N    resumable tail of the remark log (JSONL, seq > N)
//
// The three tails, and the service's per-job /events and /timeline, share
// one handler, ServeTail, over the sources' internal/journal tails.
// /progress serves harness.Progress.View, and /metrics its Rates derived
// from the same registry snapshot as the body — one derivation shared with
// the stderr heartbeat and the service's /jobs/{id}/progress.
//
// The server only reads; every source it serves is already safe for
// concurrent use (atomic registry collectors, the progress mutex, the
// journals' locked tails), so serving adds nothing to the campaign's hot
// path beyond what a request itself costs (BenchmarkMonitorOverhead gates
// this).
package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcelens/internal/harness"
	"dcelens/internal/journal"
	"dcelens/internal/metrics"
	"dcelens/internal/span"
)

// Server bundles a campaign's observable state behind an http.Handler. Any
// field may be nil; the corresponding endpoints degrade to empty-but-valid
// responses (the sources' nil-safety does the work).
type Server struct {
	// Tool names the serving binary in /healthz, e.g. "dce-campaign".
	Tool string
	// Reg is the campaign's metrics registry (/metrics).
	Reg *metrics.Registry
	// Progress is the live campaign view (/progress, /findings).
	Progress *harness.Progress
	// Events is the campaign event log; /events serves its in-memory tail
	// (enable with Events.Journal().KeepTail before the campaign starts).
	Events *metrics.EventLog
	// Spans is the campaign span recorder; /timeline serves its in-memory
	// tail (enable it the same way). Set it after New — campaigns without a
	// timeline leave it nil.
	Spans *span.Recorder
	// Remarks is the campaign remark log (corpus.Options.RemarkLog);
	// /remarks serves its in-memory tail (enable it the same way). Set it
	// after New — campaigns without remarks leave it nil.
	Remarks *metrics.EventLog

	start time.Time
}

// New assembles a server for one campaign. The uptime clock starts now.
func New(tool string, reg *metrics.Registry, progress *harness.Progress, events *metrics.EventLog) *Server {
	return &Server{Tool: tool, Reg: reg, Progress: progress, Events: events, start: time.Now()}
}

// Handler returns the monitoring mux. Every endpoint is read-only, so
// anything but GET is rejected with 405 and an Allow header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", ReadOnly(s.handleHealthz))
	mux.HandleFunc("/metrics", ReadOnly(s.handleMetrics))
	mux.HandleFunc("/progress", ReadOnly(s.handleProgress))
	mux.HandleFunc("/findings", ReadOnly(s.handleFindings))
	// The tails resolve their source per request: Spans and Remarks may
	// be attached after New.
	mux.HandleFunc("/events", ReadOnly(func(w http.ResponseWriter, r *http.Request) {
		ServeTail(w, r, s.Events.Journal())
	}))
	mux.HandleFunc("/timeline", ReadOnly(func(w http.ResponseWriter, r *http.Request) {
		ServeTail(w, r, s.Spans.Journal())
	}))
	mux.HandleFunc("/remarks", ReadOnly(func(w http.ResponseWriter, r *http.Request) {
		ServeTail(w, r, s.Remarks.Journal())
	}))
	return mux
}

// Error counters WriteJSON maintains. An encode failure happens before any
// body byte is written, so the client still gets a 500; a write failure is
// mid-body (the client hung up or the connection broke), where the status
// line is long gone and a counter is the only place to surface it.
const (
	CounterEncodeErrors = "monitor.errors.encode"
	CounterWriteErrors  = "monitor.errors.write"
)

// ReadOnly guards a read-only endpoint: non-GET methods are rejected with
// 405 Method Not Allowed and an Allow header naming the only accepted one.
func ReadOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed (read-only endpoint)", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// WriteJSON writes v as an indented JSON response with status code.
// Encoding happens into memory first, so an unencodable value turns into a
// clean 500 (plus the encode-error counter) instead of a silently truncated
// response; failures writing the already-committed body only increment the
// write-error counter. The registry may be nil (counters are then dropped).
func WriteJSON(w http.ResponseWriter, reg *metrics.Registry, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		reg.Counter(CounterEncodeErrors).Inc()
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(b, '\n')); err != nil {
		reg.Counter(CounterWriteErrors).Inc()
	}
}

// JSONError writes a JSON error body ({"error": msg}) with the given
// status code, so API clients never have to parse prose out of a text/plain
// failure.
func JSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(b, '\n'))
}

// ServeTail answers one ?since=N read of j's in-memory tail: JSONL of the
// records with seq > since (default 0: everything buffered), oldest first,
// and the head seq in X-Dcelens-Last-Seq even when nothing new matches.
// Body and header come from one locked read, so no line is past its
// header, and a client that passes the header back as since never reads a
// line twice; a first seq above since+1 means the tail dropped the lines in
// between. A nil journal serves an empty tail at seq 0, and a released one
// (journal.KeepTail(0)) an empty tail at its head seq: to the client, every
// line past since was dropped. dce-serve releases the tails of all but the
// newest 8 finished jobs that ran, so an older job's /events and /timeline
// answer 200 with an empty body and the job's last seq.
func ServeTail(w http.ResponseWriter, r *http.Request, j *journal.Journal) {
	var since int64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			JSONError(w, http.StatusBadRequest, fmt.Sprintf("since=%q: must be a non-negative integer", v))
			return
		}
		since = n
	}
	entries, head := j.Since(since)
	w.Header().Set("X-Dcelens-Last-Seq", strconv.FormatInt(head, 10))
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, e := range entries {
		fmt.Fprintln(w, e.Line)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) { WriteJSON(w, s.Reg, http.StatusOK, v) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{
		"status":    "ok",
		"tool":      s.Tool,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// MetricsReply is the /metrics?format=json body: the registry snapshot's
// fields at the top level plus, under "derived", the rates
// harness.Progress.View derives from that same snapshot, so the JSON and
// text renderings of one request agree exactly.
type MetricsReply struct {
	*metrics.RegistrySnapshot
	Derived harness.Rates `json:"derived"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Reg.Snapshot()
	d := s.Progress.View(snap).Rates
	if r.URL.Query().Get("format") == "json" {
		s.writeJSON(w, MetricsReply{RegistrySnapshot: snap, Derived: d})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, Exposition(snap))
	fmt.Fprint(w, derivedExposition(s.Reg != nil, d))
}

// derivedExposition renders already-computed derived rates in the same
// Prometheus text format Exposition uses. haveReg preserves the historical
// shape: a server without a registry never emitted the registry-derived
// series, only occupancy.
func derivedExposition(haveReg bool, d harness.Rates) string {
	var sb strings.Builder
	if haveReg {
		fmt.Fprintf(&sb, "# TYPE dcelens_units_per_sec gauge\ndcelens_units_per_sec %g\n", d.UnitsPerSec)
		if d.PassSkipKnown {
			fmt.Fprintf(&sb, "# TYPE dcelens_pass_skip_rate gauge\ndcelens_pass_skip_rate %g\n", d.PassSkipRate)
		}
	}
	if len(d.WorkerOccupancy) > 0 {
		sb.WriteString("# TYPE dcelens_worker_occupancy gauge\n")
		for w, f := range d.WorkerOccupancy {
			fmt.Fprintf(&sb, "dcelens_worker_occupancy{worker=\"%d\"} %g\n", w, f)
		}
	}
	return sb.String()
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.Progress.View(s.Reg.Snapshot()))
}

func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
	fs := s.Progress.Findings()
	if fs == nil {
		fs = []any{}
	}
	s.writeJSON(w, map[string]any{"count": len(fs), "findings": fs})
}

// Exposition renders a registry snapshot in the Prometheus text format:
// counters and gauges as single samples, histograms as cumulative _bucket
// series (seconds, le-labelled) plus _sum and _count. Names are prefixed
// with "dcelens_" and sanitized (non-alphanumeric runs become "_"); output
// is sorted by name, so identical snapshots render byte-identically.
func Exposition(s *metrics.RegistrySnapshot) string {
	var sb strings.Builder
	emit := func(m map[string]int64, kind string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			pn := promName(n)
			fmt.Fprintf(&sb, "# TYPE %s %s\n%s %d\n", pn, kind, pn, m[n])
		}
	}
	emit(s.Counters, "counter")
	emit(s.Gauges, "gauge")

	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n) + "_seconds"
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", pn)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.LeNs != math.MaxInt64 {
				le = strconv.FormatFloat(float64(b.LeNs)/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LeNs != math.MaxInt64 {
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		}
		fmt.Fprintf(&sb, "%s_sum %g\n%s_count %d\n", pn, float64(h.SumNs)/1e9, pn, h.Count)
	}
	return sb.String()
}

// promName maps a dotted registry name into the Prometheus identifier
// space: "campaign.seeds.analyzed" → "dcelens_campaign_seeds_analyzed".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("dcelens_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Running is a started monitoring server; Close shuts it down.
type Running struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (port 0 picks an ephemeral port) and serves s in a
// background goroutine. The returned Running reports the bound address and
// stops the server on Close.
func Start(addr string, s *Server) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Running{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (host:port).
func (r *Running) Addr() string { return r.ln.Addr().String() }

// Close stops the server and releases the listener.
func (r *Running) Close() error { return r.srv.Close() }
