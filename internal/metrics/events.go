package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dcelens/internal/journal"
)

// EventLog is a structured JSONL event stream: one JSON object per line,
// with a monotonic sequence number assigned under the journal's lock, so the
// file totally orders the campaign's events even when workers emit
// concurrently. Timestamps are milliseconds since the log was opened
// (relative, so two logs of the same campaign differ only in timing fields,
// never in identity fields).
//
// Event vocabulary (the "event" field): campaign_begin, seed_begin,
// seed_end, unit_begin, unit_end, failure, checkpoint, campaign_end. A nil
// *EventLog discards all emissions, so callers thread it unconditionally.
type EventLog struct {
	j     *journal.Journal
	start time.Time
}

// NewEventLog writes events to w; if w is also an io.Closer, closing the
// journal closes it.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{j: journal.New(w), start: time.Now()}
}

// Emit appends one event. The line carries seq, t_ms, and event first in
// key-sorted JSON (encoding/json sorts map keys), then the caller's fields.
// Reserved keys in fields are ignored. Nil-safe.
func (l *EventLog) Emit(event string, fields map[string]any) {
	if l == nil {
		return
	}
	l.j.Append(func(seq int64) ([]byte, error) {
		obj := make(map[string]any, len(fields)+3)
		for k, v := range fields {
			obj[k] = v
		}
		obj["seq"] = seq
		obj["t_ms"] = time.Since(l.start).Milliseconds()
		obj["event"] = event
		b, err := json.Marshal(obj)
		if err != nil {
			return nil, fmt.Errorf("metrics: event %s: %w", event, err)
		}
		return b, nil
	})
}

// Journal is the log's journal: its tail (KeepTail, Since) and Close.
// Nil for a nil log.
func (l *EventLog) Journal() *journal.Journal {
	if l == nil {
		return nil
	}
	return l.j
}

// OpenEventLog opens a file-backed event log. With resume false the file is
// truncated and sequence numbers start at 1, as NewEventLog(os.Create(...))
// would. With resume true the file is cut back to its last complete record
// and appended to, and the sequence continues from that record, so a
// resumed campaign's log reads as one continuous, totally-ordered stream
// (t_ms stays relative to each process's own start; seq is the cross-resume
// key). A missing file resumes from 0.
func OpenEventLog(path string, resume bool) (*EventLog, error) {
	j, last, err := journal.Open(path, resume)
	if err != nil {
		return nil, err
	}
	if last != nil {
		var rec struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal(last, &rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("metrics: event log %s: last record: %w", path, err)
		}
		j.SetSeq(rec.Seq)
	}
	return &EventLog{j: j, start: time.Now()}, nil
}
