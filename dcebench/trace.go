package main

// The traced replay. It drives each workload's inputs through the layers'
// public functions in the order the product calls them, and records a span
// around every call from here: no tracing runs inside the program.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"dcelens/internal/asm"
	"dcelens/internal/cgen"
	"dcelens/internal/core"
	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/history"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
	"dcelens/internal/remark"
	"dcelens/internal/report"
)

// spanRec is one traced call: a layer boundary with its cause. Spans of
// one input (a seed, a finding or a job) share Trace.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and totals them by name.
type tracer struct {
	t0    time.Time
	spans []spanRec
	total map[string]time.Duration
	count map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}, count: map[string]int{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, trace int64) int {
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	d := time.Duration(s.End - s.Start)
	t.total[s.Name] += d
	t.count[s.Name]++
	return d
}

// record adds a span whose extent was measured by the caller.
func (t *tracer) record(name string, parent int, trace int64, start, end time.Time) {
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.total[name] += end.Sub(start)
	t.count[name]++
}

// msPer is the total time in spans called name, in ms per n.
func (t *tracer) msPer(name string, n int) float64 { return ratio(ms(t.total[name]), float64(n)) }

// write saves the spans as JSON lines, for reading after the run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// passClock is the benchmark's opt.Observer: it timestamps every executed
// pass instance with the benchmark's clock and counts the instances'
// outcomes.
type passClock struct {
	t      *tracer
	parent int
	trace  int64
	last   time.Time

	instances, changed, visited, skipped int
}

func (o *passClock) BeginPipeline(*ir.Module) { o.last = time.Now() }

func (o *passClock) AfterPass(_ *ir.Module, pass string, _, _ int, st opt.PassStats) {
	now := time.Now()
	o.t.record("opt."+pass, o.parent, o.trace, o.last, now)
	o.last = now
	o.instances++
	if st.Changed {
		o.changed++
	}
	o.visited += st.FuncsVisited
	o.skipped += st.FuncsSkipped
}

// layerSpans are the spans whose sum is the replay's in-layer time (the
// rest of a unit's wall time is the corpus and scheduler overhead).
var layerSpans = []string{
	"cgen", "instrument", "interp", "core.markercfg", "pipeline.config",
	"lower", "opt", "asm.emit", "asm.scan", "core.primary",
}

// replay is the traced replay of a set of programs under a set of configs.
type replay struct {
	t     *tracer
	clock passClock
	keys  []corpus.ConfigKey
	gen   func(int64) cgen.Config

	programs, units  int
	instrs, asmBytes int
	markers          int
	wall             time.Duration // replay wall time, remark sample excluded

	// remark overhead sample: opt time without and with a collector.
	remarkUnits     int
	plain, remarked time.Duration
	applied, missed int
}

// remarkSampleUnits bounds how many units the remark-overhead comparison
// compiles twice more.
const remarkSampleUnits = 40

func newReplay(keys []corpus.ConfigKey, gen func(int64) cgen.Config) *replay {
	if gen == nil {
		gen = cgen.DefaultConfig
	}
	t := newTracer()
	return &replay{t: t, clock: passClock{t: t}, keys: keys, gen: gen}
}

// unitResult is what a replayed unit derived: the analysis sets the
// fidelity check compares with the product's.
type unitResult struct {
	key             corpus.ConfigKey
	missed, primary []string
}

// program replays one seed: generate → instrument → ground truth → marker
// CFG, then per config lower → CompileObserved → Emit → SurvivingMarkers
// → Missed/Primary.
func (rp *replay) program(seed int64) ([]unitResult, error) {
	t := rp.t
	start := time.Now()
	defer func() { rp.wall += time.Since(start) }()
	root := t.begin("seed", 0, seed)
	defer t.end(root)

	s := t.begin("cgen", root, seed)
	prog := cgen.Generate(rp.gen(seed))
	t.end(s)
	s = t.begin("instrument", root, seed)
	ins, err := instrument.Instrument(prog, instrument.Options{})
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("seed %d: instrument: %w", seed, err)
	}
	rp.markers += len(ins.Markers)
	s = t.begin("interp", root, seed)
	truth, err := core.GroundTruth(ins)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	s = t.begin("core.markercfg", root, seed)
	g, err := core.BuildMarkerCFG(ins)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("seed %d: marker cfg: %w", seed, err)
	}
	rp.programs++

	var out []unitResult
	for _, key := range rp.keys {
		s = t.begin("pipeline.config", root, seed)
		cfg := pipeline.New(key.Personality, key.Level)
		t.end(s)
		s = t.begin("lower", root, seed)
		m, err := lower.Lower(ins.Prog)
		t.end(s)
		if err != nil {
			return nil, fmt.Errorf("seed %d %s: lower: %w", seed, key, err)
		}
		s = t.begin("opt", root, seed)
		rp.clock.parent, rp.clock.trace = s, seed
		err = cfg.CompileObserved(m, &rp.clock)
		t.end(s)
		if err != nil {
			return nil, fmt.Errorf("seed %d %s: %w", seed, key, err)
		}
		rp.instrs += countInstrs(m)
		s = t.begin("asm.emit", root, seed)
		text := asm.Emit(m)
		t.end(s)
		rp.asmBytes += len(text)
		s = t.begin("asm.scan", root, seed)
		names := asm.SurvivingMarkers(text, instrument.IsMarker)
		t.end(s)
		alive := map[string]bool{}
		for _, n := range names {
			alive[n] = true
		}
		comp := &core.Compilation{Config: cfg, Module: m, Asm: text, Alive: alive}
		s = t.begin("core.primary", root, seed)
		missed := comp.Missed(truth)
		primary := g.Primary(truth, missed)
		t.end(s)
		out = append(out, unitResult{key, missed, primary})
		rp.units++
		if rp.remarkUnits < remarkSampleUnits {
			if err := rp.remarkSample(ins, cfg); err != nil {
				return nil, fmt.Errorf("seed %d %s: %w", seed, key, err)
			}
		}
	}
	return out, nil
}

// remarkSample compiles one unit twice more, without and with a
// remark.Collector, alternating the order, and accumulates both opt times.
// These compiles are outside every layer span.
func (rp *replay) remarkSample(ins *instrument.Program, cfg *pipeline.Config) error {
	compile := func(withRemarks bool) error {
		m, err := lower.Lower(ins.Prog)
		if err != nil {
			return err
		}
		var coll *remark.Collector
		start := time.Now()
		if withRemarks {
			coll = remark.NewCollector(instrument.IsMarker)
			err = cfg.CompileObserved(m, coll)
			rp.remarked += time.Since(start)
			for _, pc := range coll.Profile().Passes {
				rp.applied += pc.Applied
				rp.missed += pc.Missed
			}
		} else {
			err = cfg.CompileObserved(m, nil)
			rp.plain += time.Since(start)
		}
		return err
	}
	start := time.Now()
	defer func() { rp.wall -= time.Since(start) }()
	first := rp.remarkUnits%2 == 0
	if err := compile(first); err != nil {
		return err
	}
	if err := compile(!first); err != nil {
		return err
	}
	rp.remarkUnits++
	return nil
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// layerTime is the replay's summed in-layer time.
func (rp *replay) layerTime() time.Duration {
	var d time.Duration
	for _, name := range layerSpans {
		d += rp.t.total[name]
	}
	return d
}

// emit sets the layer metrics the replay measured. pipeline.config_ms is
// left to the caller when the workload assembles configs elsewhere too.
func (rp *replay) emit(r *result) {
	t, p, u := rp.t, rp.programs, rp.units
	r.set("cgen.ms", "ms", t.msPer("cgen", p))
	r.set("instrument.ms", "ms", t.msPer("instrument", p))
	r.set("instrument.markers", "count", ratio(float64(rp.markers), float64(p)))
	r.set("interp.ms", "ms", t.msPer("interp", p))
	r.set("core.markercfg_ms", "ms", t.msPer("core.markercfg", p))
	r.set("core.primary_ms", "ms", t.msPer("core.primary", u))
	r.set("lower.ms", "ms", t.msPer("lower", u))
	r.set("opt.ms", "ms", t.msPer("opt", u))
	known := map[string]bool{}
	for _, pass := range optPasses {
		known["opt."+pass] = true
		r.set("opt."+pass+".ms", "ms", t.msPer("opt."+pass, u))
	}
	var other []string
	for name := range t.total {
		if len(name) > 4 && name[:4] == "opt." && !known[name] {
			other = append(other, name)
		}
	}
	sort.Strings(other)
	for _, name := range other {
		r.print(name+".ms", "ms", t.msPer(name, u))
	}
	c := &rp.clock
	r.set("opt.pass_instances", "count", ratio(float64(c.instances), float64(u)))
	r.set("opt.changed_ratio", "ratio", ratio(float64(c.changed), float64(c.instances)))
	r.set("opt.funcs_skipped_ratio", "ratio", ratio(float64(c.skipped), float64(c.visited+c.skipped)))
	r.set("ir.instrs_out", "count", ratio(float64(rp.instrs), float64(u)))
	r.set("asm.emit_ms", "ms", t.msPer("asm.emit", u))
	r.set("asm.scan_ms", "ms", t.msPer("asm.scan", u))
	r.set("asm.bytes", "bytes", ratio(float64(rp.asmBytes), float64(u)))
	r.set("remark.overhead_ratio", "ratio", ratio(float64(rp.remarked), float64(rp.plain)))
	r.set("remark.applied_per_unit", "count", ratio(float64(rp.applied), float64(rp.remarkUnits)))
	r.set("remark.missed_per_unit", "count", ratio(float64(rp.missed), float64(rp.remarkUnits)))
	r.notef("replay: %d programs, %d units, %d spans; remark sample %d units", p, u, len(t.spans), rp.remarkUnits)
}

// compareUnits is the replay-fidelity check against the product's
// in-memory analyses of the same seed.
func compareUnits(r *result, seed int64, got []unitResult, pr *corpus.ProgramResult) {
	if pr == nil || pr.Err != nil {
		r.check(false, "fidelity: seed %d has no product result to compare", seed)
		return
	}
	for _, u := range got {
		an := pr.PerCfg[u.key]
		if an == nil {
			r.check(false, "fidelity: seed %d %s: product has no analysis", seed, u.key)
			continue
		}
		r.check(equalSets(u.missed, an.Missed), "fidelity: seed %d %s: replay missed %v, product %v", seed, u.key, u.missed, an.Missed)
		r.check(equalSets(u.primary, an.PrimaryMissed), "fidelity: seed %d %s: replay primary %v, product %v", seed, u.key, u.primary, an.PrimaryMissed)
	}
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ckptReplay re-saves checkpoint records one seed at a time, in seed
// order, into a fresh checkpoint file, timing every Save and summing the
// file sizes: the product's per-seed rewrite traffic, reproduced from
// outside. It returns the final file's path.
func ckptReplay(r *result, dir string, meta map[string]string, seeds []int64, record func(seed int64) (any, error)) (string, error) {
	path := filepath.Join(dir, "replay.checkpoint.json")
	cp := harness.NewCheckpoint(path)
	if err := cp.Bind(meta); err != nil {
		return "", err
	}
	var saves []float64
	var written int64
	for _, seed := range seeds {
		v, err := record(seed)
		if err != nil {
			return "", err
		}
		start := time.Now()
		if err := cp.Save(seed, v); err != nil {
			return "", err
		}
		saves = append(saves, ms(time.Since(start)))
		fi, err := os.Stat(path)
		if err != nil {
			return "", err
		}
		written += fi.Size()
	}
	var maxSave float64
	for _, s := range saves {
		maxSave = max(maxSave, s)
	}
	r.timing("harness.ckpt_save", "ms", saves)
	r.set("harness.ckpt_save_p50_ms", "ms", median(saves))
	r.set("harness.ckpt_save_max_ms", "ms", maxSave)
	r.set("harness.ckpt_bytes_written", "bytes", float64(written))
	return path, nil
}

// outcomeRecords adapts a campaign's outcomes to ckptReplay.
func outcomeRecords(c *corpus.Campaign) ([]int64, func(int64) (any, error)) {
	bySeed := map[int64]*corpus.SeedOutcome{}
	var seeds []int64
	for _, o := range c.Outcomes {
		if o != nil {
			bySeed[o.Seed] = o
			seeds = append(seeds, o.Seed)
		}
	}
	return seeds, func(seed int64) (any, error) { return bySeed[seed], nil }
}

// reportLayers times the report and history layers on a finished
// campaign.
func reportLayers(r *result, c *corpus.Campaign, dir string) error {
	start := time.Now()
	report.Summary(c)
	r.set("report.summary_ms", "ms", ms(time.Since(start)))
	start = time.Now()
	if _, err := history.NewSnapshot("dcebench", c, nil).Write(dir); err != nil {
		return err
	}
	r.set("history.snapshot_ms", "ms", ms(time.Since(start)))
	return nil
}

// runtimeProbe measures the Go runtime across a region of work.
type runtimeProbe struct {
	samples     []metrics.Sample
	gc0, total0 float64
	cpu0        float64
	start       time.Time
	GCShare     float64
	HeapLiveMiB float64
	CPUSeconds  float64
	Wall        time.Duration
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}}
	metrics.Read(p.samples)
	p.gc0, p.total0 = p.samples[0].Value.Float64(), p.samples[1].Value.Float64()
	p.cpu0 = cpuSeconds()
	p.start = time.Now()
	return p
}

// stop ends the region; call it while the region's results are still
// reachable so the live heap includes them.
func (p *runtimeProbe) stop() {
	p.Wall = time.Since(p.start)
	p.CPUSeconds = cpuSeconds() - p.cpu0
	metrics.Read(p.samples)
	p.GCShare = ratio(p.samples[0].Value.Float64()-p.gc0, p.samples[1].Value.Float64()-p.total0)
	p.HeapLiveMiB = float64(p.samples[2].Value.Uint64()) / (1 << 20)
}
