package main

// The campaign workload is the paper's §4.1–4.2 evaluation, what
// dce-campaign and dce-report run: default generator, both personalities
// at all five levels, one worker, no checkpoint and no observability
// sinks, driven through corpus.Run. Lowering, the optimizer and code
// generation do nearly all of its work; the persistence and service
// layers do none.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dcelens/internal/asm"
	"dcelens/internal/corpus"
	"dcelens/internal/harness"
	"dcelens/internal/instrument"
	"dcelens/internal/report"
)

const (
	// campaignBatch is the corpus size of one corpus.Run in the timed
	// region: the default of dce-campaign -n and dce-report -n. The region
	// runs batches of fresh seeds until its time is up, so one run averages
	// over many programs.
	campaignBatch = 30
	// tracedPrograms is the corpus the traced run replays.
	tracedPrograms = 32
	// campaignTracedFindings and campaignTracedBisects bound the reductions
	// and the bisections (per personality) of the traced run.
	campaignTracedFindings = 2
	campaignTracedBisects  = 4
	// warmPrograms is the corpus of the set-up campaign, which warms the
	// heap and the code paths before timing starts.
	warmPrograms = 8
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps = 5
	// verifySample is how many programs of the first batch have every
	// compiled module executed against ground truth.
	verifySample = 4
	// baseRange bounds the drawn base seeds.
	baseRange = 1 << 40
)

func campaignOptions(programs int, base int64, workers int) corpus.Options {
	return corpus.Options{Programs: programs, BaseSeed: base, Workers: workers}
}

// campaignSetup runs the set-up campaign setupReps times and sets setup_s.
func campaignSetup(r *result, base int64) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := corpus.Run(campaignOptions(warmPrograms, base, 1)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", "s", r.timing("setup", "s", setups))
	return nil
}

func runCampaign(e *env, r *result) error {
	in := e.inputs()
	if err := campaignSetup(r, in.Int63n(baseRange)); err != nil {
		return err
	}
	var (
		perProgram []float64
		wall       time.Duration
		programs   int
		firstBase  int64
		firstSHA   string
	)
	rss := sampleRSS("self")
	for b := 0; b == 0 || wall < e.budget; b++ {
		base := in.Int63n(baseRange)
		opts := campaignOptions(campaignBatch, base, 1)
		var last time.Time
		// SeedHook runs as each seed finalizes: at one worker the gap
		// between calls is one program's time.
		opts.SeedHook = func(int, int64) {
			now := time.Now()
			perProgram = append(perProgram, ms(now.Sub(last)))
			last = now
		}
		start := time.Now()
		last = start
		c, err := corpus.Run(opts)
		wall += time.Since(start)
		if err != nil {
			return fmt.Errorf("campaign base %d: %w", base, err)
		}
		programs += countCampaign(r, c)
		checkCampaign(r, c)
		sha := summarySHA(c)
		r.notef("batch %d base %d: %d programs, report sha256 %s", b, base, campaignBatch, sha)
		if b == 0 {
			firstBase, firstSHA = base, sha
			verifyModules(r, c, verifySample)
		}
	}
	if err := rss.stop(r); err != nil {
		return err
	}
	r.timing("program", "ms", perProgram)
	r.set("programs_per_s", "programs/s", float64(programs)/wall.Seconds())
	r.print("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))

	// Repeat the first batch outside the timed region: its report must not
	// change.
	c, err := corpus.Run(campaignOptions(campaignBatch, firstBase, 1))
	if err != nil {
		return err
	}
	sha := summarySHA(c)
	r.notef("batch 0 repeated: report sha256 %s", sha)
	r.check(sha == firstSHA, "campaign base %d: report sha256 %s on repetition, %s first", firstBase, sha, firstSHA)
	return nil
}

// countCampaign adds a campaign's units to the operation counts and
// returns how many programs were analyzed under every configuration. A
// failed unit is a harness failure record (a program-level failure fails
// all of its units).
func countCampaign(r *result, c *corpus.Campaign) int {
	units := len(c.Opts.Personalities) * len(c.Opts.Levels)
	full := 0
	for _, o := range c.Outcomes {
		r.attempted += units
		switch {
		case o == nil:
			r.failed += units
		case !o.Ok:
			r.failed += units
		default:
			r.failed += len(o.Failures)
			if len(o.Failures) == 0 {
				full++
			}
		}
	}
	return full
}

// checkCampaign checks a finished campaign's outputs: no errors, and for
// every analysis, the surviving-marker set agrees with the assembly, no
// live marker was eliminated, and the missed and primary sets follow from
// the compilation and the ground truth.
func checkCampaign(r *result, c *corpus.Campaign) {
	r.check(len(c.Stats.Errors) == 0, "campaign base %d: errors: %v", c.Opts.BaseSeed, c.Stats.Errors)
	for i, pr := range c.Programs {
		if pr == nil || pr.Err != nil {
			r.check(false, "campaign base %d: program %d has no result", c.Opts.BaseSeed, i)
			continue
		}
		for _, key := range sortedKeys(pr.PerCfg) {
			an := pr.PerCfg[key]
			comp := an.Compilation
			alive := asm.SurvivingMarkers(comp.Asm, instrument.IsMarker)
			r.check(len(alive) == len(comp.Alive) && allIn(alive, comp.Alive),
				"seed %d %s: Alive %v disagrees with the assembly's markers %v", pr.Seed, key, keysOf(comp.Alive), alive)
			bad := comp.SoundnessError(pr.Truth)
			r.check(len(bad) == 0, "seed %d %s: live markers eliminated: %v", pr.Seed, key, bad)
			missed := comp.Missed(pr.Truth)
			r.check(equalSets(an.Missed, missed), "seed %d %s: missed %v, compilation says %v", pr.Seed, key, an.Missed, missed)
			primary := pr.Graph.Primary(pr.Truth, missed)
			r.check(equalSets(an.PrimaryMissed, primary), "seed %d %s: primary %v, marker CFG says %v", pr.Seed, key, an.PrimaryMissed, primary)
		}
	}
}

// verifyModules executes every compiled module of the first n programs
// and compares it with the program's ground truth.
func verifyModules(r *result, c *corpus.Campaign, n int) {
	for _, pr := range c.Programs[:min(n, len(c.Programs))] {
		if pr == nil || pr.Err != nil {
			continue
		}
		for _, key := range sortedKeys(pr.PerCfg) {
			err := pr.PerCfg[key].Compilation.VerifyAgainstTruth(pr.Truth)
			r.check(err == nil, "seed %d %s: %v", pr.Seed, key, err)
		}
	}
}

func sortedKeys[V any](m map[corpus.ConfigKey]V) []corpus.ConfigKey {
	keys := make([]corpus.ConfigKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Personality != keys[j].Personality {
			return keys[i].Personality < keys[j].Personality
		}
		return keys[i].Level < keys[j].Level
	})
	return keys
}

func allIn(names []string, set map[string]bool) bool {
	for _, n := range names {
		if !set[n] {
			return false
		}
	}
	return true
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func summarySHA(c *corpus.Campaign) string {
	sum := sha256.Sum256([]byte(report.Summary(c)))
	return hex.EncodeToString(sum[:])
}

// tracedRun is the shared part of every traced run.
type tracedRun struct {
	c  *corpus.Campaign // the one-worker campaign
	rp *replay
	rt *runtimeProbe // measured around the one-worker campaign
}

// tracedCampaign runs the product's campaign at one and at two workers
// (untraced, timed from outside), checks both, then replays the first
// replayPrograms programs through the layers and checks the replay
// against the one-worker campaign. It sets every layer metric the replay
// measures.
func tracedCampaign(r *result, opts corpus.Options, replayPrograms int) (*tracedRun, error) {
	opts.Workers = 1
	// At one worker the gap between SeedHook calls is one seed's time.
	seedTime := map[int64]time.Duration{}
	var last time.Time
	opts.SeedHook = func(_ int, seed int64) {
		now := time.Now()
		seedTime[seed] = now.Sub(last)
		last = now
	}
	rt := startRuntimeProbe()
	last = rt.start
	a, err := corpus.Run(opts)
	rt.stop()
	opts.SeedHook = nil
	if err != nil {
		return nil, err
	}
	opts.Workers = 2
	start := time.Now()
	b, err := corpus.Run(opts)
	wallJ2 := time.Since(start)
	if err != nil {
		return nil, err
	}
	countCampaign(r, a)
	checkCampaign(r, a)
	shaA, shaB := summarySHA(a), summarySHA(b)
	r.notef("report sha256 at -j 1 %s, at -j 2 %s", shaA, shaB)
	r.check(shaA == shaB, "campaign base %d: report differs between one and two workers", opts.BaseSeed)

	var keys []corpus.ConfigKey
	for _, p := range a.Opts.Personalities {
		for _, l := range a.Opts.Levels {
			keys = append(keys, corpus.ConfigKey{Personality: p, Level: l})
		}
	}
	rp := newReplay(keys, opts.GenConfig)
	n := min(replayPrograms, len(a.Programs))
	var productWall time.Duration // the replayed seeds' share of the -j 1 wall time
	for i := 0; i < n; i++ {
		seed := opts.BaseSeed + int64(i)
		got, err := rp.program(seed)
		if err != nil {
			return nil, err
		}
		compareUnits(r, seed, got, a.Programs[i])
		productWall += seedTime[seed]
	}
	rp.emit(r)
	r.set("corpus.overhead_ms_per_seed", "ms", ms(productWall-rp.layerTime())/float64(n))
	r.set("sched.speedup_j2", "ratio", rt.Wall.Seconds()/wallJ2.Seconds())
	r.set("runtime.gc_cpu_share", "ratio", rt.GCShare)
	r.set("runtime.heap_live_mb", "MiB", rt.HeapLiveMiB)
	r.print("tracing_overhead", "ratio", ratio(float64(rp.wall-productWall), float64(productWall)))
	r.notef("-j 1 %.3fs (cpu %.3fs), -j 2 %.3fs, replay %.3fs for %d of %d programs",
		rt.Wall.Seconds(), rt.CPUSeconds, wallJ2.Seconds(), rp.wall.Seconds(), n, len(a.Programs))
	return &tracedRun{c: a, rp: rp, rt: rt}, nil
}

// writeSpans saves the replay's spans when the run has somewhere to put
// them.
func (tc *tracedRun) writeSpans(e *env) error {
	if e.spans == "" {
		return nil
	}
	return tc.rp.t.write(e.spans)
}

// commonLayers measures, on a workload that runs no checkpoint, event log
// or span recorder of its own, the layers the campaign's outcomes would
// feed: the checkpoint rewrite traffic, the report and the history
// snapshot.
func commonLayers(e *env, r *result, c *corpus.Campaign) error {
	dir, err := e.subdir("ckpt")
	if err != nil {
		return err
	}
	seeds, rec := outcomeRecords(c)
	path, err := ckptReplay(r, dir, map[string]string{"base_seed": fmt.Sprint(c.Opts.BaseSeed)}, seeds, rec)
	if err != nil {
		return err
	}
	start := time.Now()
	cp, err := harness.LoadCheckpoint(path)
	r.set("harness.ckpt_load_ms", "ms", ms(time.Since(start)))
	if err != nil {
		return err
	}
	r.check(cp.Len() == len(seeds), "harness: replayed checkpoint holds %d seeds, want %d", cp.Len(), len(seeds))
	r.set("metrics.events_per_seed", "count", 0)
	r.set("span.spans_per_seed", "count", 0)
	hdir, err := e.subdir("history")
	if err != nil {
		return err
	}
	return reportLayers(r, c, hdir)
}

func traceCampaign(e *env, r *result) error {
	in := e.inputs()
	in.Int63n(baseRange) // the set-up campaign's base
	tc, err := tracedCampaign(r, campaignOptions(tracedPrograms, in.Int63n(baseRange), 1), tracedPrograms)
	if err != nil {
		return err
	}
	rt := tc.rt
	r.set("cpu_util", "ratio", rt.CPUSeconds/(rt.Wall.Seconds()*float64(runtime.NumCPU())))
	r.set("pipeline.config_ms", "ms", tc.rp.t.msPer("pipeline.config", tc.rp.t.count["pipeline.config"]))
	// The triage layers (reduce, bisect) on this campaign's findings: the
	// triage workload's own rates spread too widely between seeds for the
	// benchmark's bounds, so their per-layer numbers are measured here.
	if _, _, err := triageLayers(r, tc.rp.t, tc.c, campaignTracedFindings, campaignTracedBisects); err != nil {
		return err
	}
	if err := commonLayers(e, r, tc.c); err != nil {
		return err
	}
	return tc.writeSpans(e)
}
