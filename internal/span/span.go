// Package span records a campaign's execution as a hierarchical span
// timeline: job → attempt → seed stage → unit → phase → pass work spans,
// plus the scheduler's own spans (queue wait, worker busy/idle, sequencer
// reorder-buffer stalls, checkpoint writes). It answers the question the
// aggregate registry (internal/metrics) cannot: "where did *this* run's
// wall clock actually go".
//
// Spans are exported as Chrome trace_event JSON — one complete ("ph":"X")
// event per line — loadable directly in Perfetto or chrome://tracing and
// analyzable offline by cmd/dce-prof. The file is written as a JSON array
// whose closing bracket is intentionally omitted (the trace_event format
// explicitly tolerates this), which is what lets a resumed campaign append
// to a halted run's trace and still produce a loadable file.
//
// Design rules, shared with the rest of the telemetry stack:
//
//   - Nil-safe: a nil *Recorder discards everything, so instrumented code
//     threads it unconditionally and a disabled campaign pays one nil check.
//   - Deterministic mode mirrors -metrics=deterministic: only the logical
//     span categories (seed, unit, phase, pass, checkpoint) are kept —
//     scheduler and job spans depend on worker interleaving and are dropped
//     — and every wall-clock field (ts, dur, tid) renders as zero. Because
//     the corpus layer flushes logical spans through the sequencer in slot
//     order, a deterministic trace is byte-identical across -j values and
//     across halt/resume.
//   - Concurrent-safe: spans are appended through an internal/journal
//     Journal, like the event log: sequence numbers and writes happen
//     under its lock, and its optional tail serves the monitor's resumable
//     /timeline endpoint.
package span

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"dcelens/internal/journal"
)

// Span categories. Deterministic recorders keep only the logical
// categories whose identity is a pure function of the corpus (CatSeed,
// CatUnit, CatPhase, CatPass, CatCheckpoint); CatJob and CatSched spans
// describe wall-clock scheduling and exist only in wall traces.
const (
	CatJob        = "job"        // campaign / service-attempt envelope
	CatSeed       = "seed"       // a seed's prepare and finalize stages
	CatUnit       = "unit"       // one (seed, config) compilation unit
	CatPhase      = "phase"      // generate/instrument/truth/lower/opt/codegen
	CatPass       = "pass"       // one executed pass instance
	CatCheckpoint = "checkpoint" // checkpoint write
	CatSched      = "sched"      // queue-wait, busy, idle, seq-stall
)

// deterministicCat reports whether spans of category cat survive
// deterministic redaction.
func deterministicCat(cat string) bool {
	switch cat {
	case CatSeed, CatUnit, CatPhase, CatPass, CatCheckpoint:
		return true
	}
	return false
}

// Arg is one key/value detail on a span. Args are rendered in the order
// given (never sorted), so a span's JSON is a pure function of how the
// instrumentation site built it.
type Arg struct {
	Key, Val string
}

// Int64 builds a numeric argument.
func Int64(key string, v int64) Arg { return Arg{key, strconv.FormatInt(v, 10)} }

// Int builds a numeric argument.
func Int(key string, v int) Arg { return Arg{key, strconv.Itoa(v)} }

// Str builds a string argument.
func Str(key, val string) Arg { return Arg{key, val} }

// Bool builds a boolean argument.
func Bool(key string, v bool) Arg { return Arg{key, strconv.FormatBool(v)} }

// Span is one timed interval of campaign work.
type Span struct {
	Name  string // display name: stage, phase, or pass
	Cat   string // one of the Cat* constants
	TID   int    // track: worker index + 1; 0 is the coordinator track
	Start time.Time
	Dur   time.Duration
	Args  []Arg
}

// Recorder serializes spans into a Chrome trace_event stream. All methods
// are nil-safe.
type Recorder struct {
	j             *journal.Journal
	deterministic bool
	start         time.Time
}

// New returns a wall-clock recorder writing to w; if w is also an
// io.Closer, closing the journal closes it. The stream header (array
// opener plus a metadata record naming the mode) is written immediately.
func New(w io.Writer) *Recorder { return newRecorder(journal.New(w), false, nil) }

// NewDeterministic returns a recorder in deterministic mode: scheduler and
// job spans are dropped and all wall-clock fields render as zero, so the
// resulting trace is byte-identical across worker counts and resumes.
func NewDeterministic(w io.Writer) *Recorder { return newRecorder(journal.New(w), true, nil) }

// newRecorder records into j, first writing the part of the stream header
// its file lacks: all of it when last (the file's last complete line) is
// nil, the metadata record when a kill fell between the header's two
// lines.
func newRecorder(j *journal.Journal, deterministic bool, last []byte) *Recorder {
	j.Suffix = ","
	mode := "wall"
	if deterministic {
		mode = "deterministic"
	}
	header := "[\n" +
		`{"name":"process_name","cat":"__metadata","ph":"M","pid":1,"tid":0,"args":{"name":"dcelens","mode":"` + mode + `"}},` + "\n"
	switch {
	case last == nil:
		j.WriteHeader([]byte(header))
	case string(last) == "[":
		j.WriteHeader([]byte(header[2:]))
	}
	return &Recorder{j: j, deterministic: deterministic, start: time.Now()}
}

// Open opens a file-backed recorder. With resume false the file is
// truncated and a fresh header written; with resume true the file is cut
// back to its last complete line and appended to with no new header, so a
// halted campaign's trace plus its resumed continuation reads as one
// stream (and, in deterministic mode, is byte-identical to an
// uninterrupted run's — restored seeds emit no spans). A missing or empty
// file gets the header.
func Open(path string, resume, deterministic bool) (*Recorder, error) {
	j, last, err := journal.Open(path, resume)
	if err != nil {
		return nil, err
	}
	return newRecorder(j, deterministic, last), nil
}

// Journal is the recorder's journal: its tail (KeepTail, Since) and Close.
// Nil for a nil recorder.
func (r *Recorder) Journal() *journal.Journal {
	if r == nil {
		return nil
	}
	return r.j
}

// Deterministic reports whether the recorder redacts wall-clock fields.
func (r *Recorder) Deterministic() bool { return r != nil && r.deterministic }

// Emit records one span. Deterministic recorders silently drop categories
// whose timing depends on scheduling (CatJob, CatSched). Nil-safe.
func (r *Recorder) Emit(sp Span) {
	if r == nil || r.deterministic && !deterministicCat(sp.Cat) {
		return
	}
	line := r.render(sp)
	r.j.Append(func(int64) ([]byte, error) { return line, nil })
}

// render serializes one span as a trace_event complete event. Field order is
// fixed so identical spans render identically byte for byte.
func (r *Recorder) render(sp Span) []byte {
	b := make([]byte, 0, 128+24*len(sp.Args))
	b = append(b, `{"name":`...)
	b = appendQuoted(b, sp.Name)
	b = append(b, `,"cat":`...)
	b = appendQuoted(b, sp.Cat)
	b = append(b, `,"ph":"X","ts":`...)
	var ts, dur int64
	tid := sp.TID
	if !r.deterministic {
		ts = sp.Start.Sub(r.start).Microseconds()
		dur = sp.Dur.Microseconds()
	} else {
		tid = 0
	}
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, dur, 10)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if len(sp.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range sp.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuoted(b, a.Key)
			b = append(b, ':')
			b = appendQuoted(b, a.Val)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendQuoted appends s as a JSON string. The span vocabulary is plain
// ASCII (pass names, config strings, decimal numbers); anything unusual is
// still escaped correctly.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = fmt.Appendf(b, `\u%04x`, c)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
