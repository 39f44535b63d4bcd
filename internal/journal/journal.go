// Package journal is the one append-only, line-oriented log under
// dcelens's persistent and live streams: the campaign checkpoint, the event
// and remark logs, and the span trace. Each owner keeps its own record
// format; the journal owns what they share:
//
//   - a sequence number per record, assigned under one lock, so an owner
//     whose record carries its own seq (the event log) renders it there;
//   - the first write error, latched: later appends are dropped and Close
//     returns it, so a broken stream surfaces at exit instead of being
//     silently truncated;
//   - an optional in-memory tail ring (KeepTail), read together with the
//     head seq by Since, behind every ?since=N HTTP route;
//   - one recovery rule: Open, resuming a file, first cuts it back to its
//     last complete line. A kill at any byte costs at most the record it
//     tore, and every resumed file parses line by line.
//
// Nothing is fsynced: the files survive a process kill at any byte, not a
// power loss. Every method is nil-safe.
package journal

import (
	"bytes"
	"io"
	"os"
	"sync"
)

// TailSize is the tail capacity behind every live ?since=N route.
const TailSize = 4096

// Entry is one record held in the tail: its sequence number and its text
// (no suffix, no newline).
type Entry struct {
	Seq  int64
	Line string
}

// Journal appends records to a writer, one per line.
type Journal struct {
	// Suffix follows each record in the file but not in the tail (the span
	// trace's trailing comma). Set it before the first Append.
	Suffix string

	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	seq int64
	err error

	ring []Entry // the tail, grown by Append up to size; once full, ring[head] is the oldest
	head int
	size int
}

// New returns a journal writing to w (nil: tail only); if w is also an
// io.Closer, Close closes it.
func New(w io.Writer) *Journal {
	j := &Journal{w: w}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Open opens a file-backed journal. With resume false the file is
// truncated; with resume true it is kept, minus every byte after its last
// newline (a torn final record). A missing file is created either way.
// last is the file's last complete line without its newline, nil when it
// has none; owners read their resume state (a seq, whether a header is
// present) from it.
func Open(path string, resume bool) (j *Journal, last []byte, err error) {
	flag := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, nil, err
	}
	cut, last, err := lastLine(f)
	if err == nil {
		err = f.Truncate(cut)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return New(f), last, nil
}

// lastLine returns the offset just past f's last newline (0 if it has
// none) and the complete line that newline ends. It reads backwards in
// doubling windows, so resuming costs about one record, not one file.
func lastLine(f *os.File) (int64, []byte, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	size := st.Size()
	for window := int64(4 << 10); ; window *= 2 {
		off := max(size-window, 0)
		buf := make([]byte, size-off)
		if _, err := f.ReadAt(buf, off); err != nil {
			return 0, nil, err
		}
		end := bytes.LastIndexByte(buf, '\n')
		start := bytes.LastIndexByte(buf[:max(end, 0)], '\n') + 1
		if off > 0 && start == 0 {
			continue // the line may begin before the window
		}
		if end < 0 {
			return 0, nil, nil
		}
		return off + int64(end) + 1, buf[start:end], nil
	}
}

// Lines returns data's complete lines, without their newlines; a torn
// final line (no newline) is left out. Read-only loaders use it, so they
// see exactly what a resumed Open would keep.
func Lines(data []byte) [][]byte {
	end := bytes.LastIndexByte(data, '\n')
	if end < 0 {
		return nil
	}
	return bytes.Split(data[:end], []byte("\n"))
}

// SetSeq sets the sequence number the next record follows: a resumed
// owner continues its file's numbering. Call it before the first Append.
func (j *Journal) SetSeq(seq int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq = seq
}

// KeepTail keeps the newest n records in memory for Since, dropping any
// tail already kept; n <= 0 turns the tail off. The tail grows as records
// arrive, so a journal that appends little holds little. It may be called
// after appends: KeepTail(0) then releases the tail and keeps the seq, so
// Since answers nothing at the head seq, which a ?since=N reader takes
// for dropped records.
func (j *Journal) KeepTail(n int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ring, j.head, j.size = nil, 0, max(n, 0)
}

// WriteHeader writes p as is, with no sequence number and no tail entry: a
// file header ahead of the first record.
func (j *Journal) WriteHeader(p []byte) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil && j.err == nil {
		_, j.err = j.w.Write(p)
	}
}

// Append writes one record. render receives the record's sequence number
// and returns its text, which must hold no newline; it runs under the
// journal's lock, so records reach the file in seq order. After a render
// or write error nothing more is recorded. Append returns the latched
// error.
func (j *Journal) Append(render func(seq int64) ([]byte, error)) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	line, err := render(j.seq + 1)
	if err != nil {
		j.err = err
		return err
	}
	j.seq++
	if j.size > 0 {
		e := Entry{Seq: j.seq, Line: string(line)}
		if len(j.ring) < j.size {
			j.ring = append(j.ring, e)
		} else {
			j.ring[j.head] = e
			j.head = (j.head + 1) % j.size
		}
	}
	if j.w != nil {
		_, j.err = j.w.Write(append(append(line, j.Suffix...), '\n'))
	}
	return j.err
}

// Since returns the tail's records with seq > since, oldest first, and the
// head seq (the last record appended), both from one locked read. A first
// entry above since+1 means the tail dropped the records in between.
func (j *Journal) Since(since int64) ([]Entry, int64) {
	if j == nil {
		return nil, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Entry
	for i := range j.ring {
		if e := j.ring[(j.head+i)%len(j.ring)]; e.Seq > since {
			out = append(out, e)
		}
	}
	return out, j.seq
}

// Close closes the writer when it is closable and returns the first error
// the journal latched.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if err := j.c.Close(); j.err == nil {
			j.err = err
		}
		j.c = nil
	}
	return j.err
}
