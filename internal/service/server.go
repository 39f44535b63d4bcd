// The HTTP face of the job engine (cmd/dce-serve). Routes:
//
//	POST /jobs              submit a campaign Spec → 202 {"id": "job-N"}
//	                        429 + Retry-After when the queue is full,
//	                        503 while draining, 400 for bad specs
//	GET  /jobs              every job's status, in submission order
//	GET  /jobs/{id}         one job's status (state machine + progress)
//	POST /jobs/{id}/cancel  cancel a queued job / stop a running one
//	GET  /jobs/{id}/events  the job's event-log tail (?since=N resumes)
//	GET  /jobs/{id}/timeline  the job's span-timeline tail (?since=N resumes)
//	GET  /jobs/{id}/progress  the job's progress (monitor /progress shape)
//	GET  /jobs/{id}/findings  findings discovered so far
//	GET  /jobs/{id}/report  the finished job's campaign report (text)
//	GET  /jobs/{id}/remarks  the finished job's remark summary (JSON)
//	GET  /healthz           ok | degraded (queue full) | draining
//	GET  /metrics           service registry (Prometheus text, ?format=json)
//
// Every job stays queryable for the life of the server, but a finished job
// keeps only what these routes serve. Its /progress is the view rendered
// as it ended, so elapsed time and rates stop moving. Only the newest 8
// finished jobs that ran keep their event and span tails; an older job's
// /events and /timeline answer 200 with an empty body and its head seq in
// X-Dcelens-Last-Seq, which the ?since=N contract reads as dropped lines.
//
// Method gating rides the Go 1.22 ServeMux method patterns: a PUT against
// a GET-only route gets the mux's own 405 with an Allow header, matching
// the monitor package's read-only contract.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dcelens/internal/monitor"
)

// RetryAfter is the backpressure hint (seconds) sent with every 429.
const RetryAfter = 1

// Server exposes an Engine over HTTP.
type Server struct {
	Engine *Engine
	start  time.Time
}

// NewServer wraps an engine for serving. The uptime clock starts now.
func NewServer(e *Engine) *Server {
	return &Server{Engine: e, start: time.Now()}
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/findings", s.handleFindings)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/remarks", s.handleRemarks)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		monitor.JSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	j, err := s.Engine.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfter))
		monitor.JSONError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		monitor.JSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		monitor.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusAccepted, j.Status())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Engine.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, map[string]any{"count": len(out), "jobs": out})
}

// job resolves {id}, writing the 404 itself when absent.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Engine.Job(id)
	if !ok {
		monitor.JSONError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j, _ = s.Engine.Cancel(j.ID)
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, j.Status())
}

// handleEvents serves the job's event-log tail through the monitor's
// shared ?since=N handler.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		monitor.ServeTail(w, r, j.Events().Journal())
	}
}

// handleTimeline serves the job's span-timeline tail the same way.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		monitor.ServeTail(w, r, j.Spans().Journal())
	}
}

// handleProgress serves one job's view (Job.View), the same harness.View
// the monitor's /progress serves, so a dashboard pointed at either surface
// reads the same shape.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, j.View())
	}
}

func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fs := j.Findings()
	if fs == nil {
		fs = []any{}
	}
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, map[string]any{"count": len(fs), "findings": fs})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	text, done := j.Report()
	if !done {
		monitor.JSONError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; the report exists once it is done", j.ID, j.State()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// handleRemarks serves a finished job's campaign-wide remark summary:
// per-pass applied/missed counts and the miss-reason histogram. Like
// /report it answers 409 until the job is done (the summary aggregates the
// whole campaign); a done job that ran without Spec.Remarks gets an
// explicit remarks=false body rather than an empty object, so clients can
// tell "collected nothing" from "was never collecting".
func (s *Server) handleRemarks(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	sum, done := j.RemarkSummary()
	if !done {
		monitor.JSONError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; the remark summary exists once it is done", j.ID, j.State()))
		return
	}
	if sum == nil {
		monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, map[string]any{"id": j.ID, "remarks": false})
		return
	}
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, map[string]any{"id": j.ID, "remarks": true, "summary": sum})
}

// HealthReply is the /healthz body: admission health plus the queue and
// job-outcome counters an operator watches during a drain.
type HealthReply struct {
	Status   string `json:"status"` // ok | degraded | draining
	Tool     string `json:"tool"`
	UptimeMs int64  `json:"uptime_ms"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	Submitted int64 `json:"jobs_submitted"`
	Rejected  int64 `json:"jobs_rejected"`
	Retried   int64 `json:"jobs_retried"`
	Done      int64 `json:"jobs_done"`
	Failed    int64 `json:"jobs_failed"`
	Cancelled int64 `json:"jobs_cancelled"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reg := s.Engine.Metrics()
	depth, capacity := s.Engine.QueueDepth()
	monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, HealthReply{
		Status:     s.Engine.Health(),
		Tool:       s.Engine.Tool,
		UptimeMs:   time.Since(s.start).Milliseconds(),
		QueueDepth: depth,
		QueueCap:   capacity,
		Submitted:  reg.Counter(CounterSubmitted).Value(),
		Rejected:   reg.Counter(CounterRejected).Value(),
		Retried:    reg.Counter(CounterRetried).Value(),
		Done:       reg.Counter(CounterDone).Value(),
		Failed:     reg.Counter(CounterFailed).Value(),
		Cancelled:  reg.Counter(CounterCancelled).Value(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Engine.Metrics().Snapshot()
	if r.URL.Query().Get("format") == "json" {
		monitor.WriteJSON(w, s.Engine.Metrics(), http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, monitor.Exposition(snap))
}
