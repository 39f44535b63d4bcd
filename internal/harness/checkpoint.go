package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"dcelens/internal/journal"
)

// Checkpoint persists per-seed campaign outcomes so an interrupted
// campaign resumes without recomputing completed seeds. The on-disk form
// is an internal/journal file: a header line (the format version and the
// campaign metadata) followed by one {"seed":N,"outcome":...} line per
// completed seed, appended as each seed completes. A killed campaign
// leaves at most one torn final line, which loading ignores and the next
// save cuts away; a later line for the same seed replaces an earlier one.
//
// The checkpoint stores outcomes as raw JSON so this package stays
// independent of the corpus package's record type; resumed records decode
// into exactly the value that was saved, which is what makes a resumed
// campaign's report byte-identical to an uninterrupted run's.
type Checkpoint struct {
	mu   sync.Mutex
	path string // empty: in-memory only (tests)
	// fresh: the file does not hold this checkpoint yet, so the next save
	// rewrites it whole (header plus every record) instead of appending.
	fresh bool

	meta map[string]string
	done map[int64]json.RawMessage
}

// checkpointHeader is the file's first line.
type checkpointHeader struct {
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// checkpointVersion 2 is the journal format; version 1 was one JSON
// document rewritten whole on every save.
const checkpointVersion = 2

// NewCheckpoint creates an empty checkpoint persisting to path (empty
// path: in-memory only). Its first save starts the file afresh.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, fresh: true, done: map[int64]json.RawMessage{}}
}

// LoadCheckpoint reads an existing checkpoint file, which later saves
// append to; a missing file yields a fresh checkpoint bound to the same
// path. Only complete lines count: a torn final record is ignored (and
// never written to — loading is read-only), while a missing or torn
// header, or a file in another format version, is an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewCheckpoint(path), nil
	}
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	lines := journal.Lines(data)
	var hdr checkpointHeader
	if len(lines) == 0 || json.Unmarshal(lines[0], &hdr) != nil {
		// A version-1 checkpoint is one indented document: its first line
		// is no header, but its first value still names its version.
		if json.NewDecoder(bytes.NewReader(data)).Decode(&hdr) != nil || hdr.Version == checkpointVersion {
			return nil, fmt.Errorf("harness: checkpoint %s: missing or torn header", path)
		}
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("harness: checkpoint %s: version %d, want %d; rerun the campaign to rebuild it", path, hdr.Version, checkpointVersion)
	}
	cp := NewCheckpoint(path)
	cp.fresh = false
	cp.meta = hdr.Meta
	for i, line := range lines[1:] {
		var rec struct {
			Seed    *int64          `json:"seed"`
			Outcome json.RawMessage `json:"outcome"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Seed == nil || rec.Outcome == nil {
			return nil, fmt.Errorf("harness: checkpoint %s: line %d: not a seed record", path, i+2)
		}
		cp.done[*rec.Seed] = rec.Outcome
	}
	return cp, nil
}

// Bind ties the checkpoint to a campaign identity. A fresh checkpoint
// records the metadata; a resumed one verifies it, refusing to mix
// outcomes from differently-configured campaigns.
func (c *Checkpoint) Bind(meta map[string]string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta == nil {
		// A file already written without metadata is rewritten with it.
		c.meta, c.fresh = meta, true
		return nil
	}
	for k, v := range meta {
		if got, ok := c.meta[k]; ok && got != v {
			return fmt.Errorf("harness: checkpoint %s: campaign mismatch: %s is %q, checkpoint has %q", c.path, k, v, got)
		}
	}
	return nil
}

// Meta returns a copy of the campaign identity the checkpoint is bound to
// (nil for a never-bound checkpoint). Merging tools use it to verify that
// shard checkpoints came from compatibly-configured campaigns.
func (c *Checkpoint) Meta() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta == nil {
		return nil
	}
	out := make(map[string]string, len(c.meta))
	for k, v := range c.meta {
		out[k] = v
	}
	return out
}

// Len reports how many seeds have completed.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Seeds returns the completed seeds in ascending order.
func (c *Checkpoint) Seeds() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seedsLocked()
}

func (c *Checkpoint) seedsLocked() []int64 {
	out := make([]int64, 0, len(c.done))
	for s := range c.done {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Restore decodes the saved outcome of a completed seed into v, reporting
// whether the seed was present.
func (c *Checkpoint) Restore(seed int64, v any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.done[seed]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("harness: checkpoint: seed %d: %w", seed, err)
	}
	return true, nil
}

// Save records a completed seed's outcome and appends it to the file.
func (c *Checkpoint) Save(seed int64, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: checkpoint: seed %d: %w", seed, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[seed] = raw
	if c.path == "" {
		return nil
	}
	if err := c.writeLocked(seed); err != nil {
		c.fresh = true // the file may now lack records: rewrite it next time
		return fmt.Errorf("harness: checkpoint: %w", err)
	}
	c.fresh = false
	return nil
}

// writeLocked appends seed's record to the file, or, while the checkpoint
// is fresh, rewrites the file as the header plus every record. The file is
// reopened per save, so a checkpoint holds no descriptor between seeds.
func (c *Checkpoint) writeLocked(seed int64) error {
	j, _, err := journal.Open(c.path, !c.fresh)
	if err != nil {
		return err
	}
	seeds := []int64{seed}
	if c.fresh {
		hdr, _ := json.Marshal(checkpointHeader{Version: checkpointVersion, Meta: c.meta}) // cannot fail
		j.WriteHeader(append(hdr, '\n'))
		seeds = c.seedsLocked()
	}
	for _, s := range seeds {
		j.Append(func(int64) ([]byte, error) {
			return fmt.Appendf(nil, `{"seed":%d,"outcome":%s}`, s, c.done[s]), nil
		})
	}
	return j.Close()
}
