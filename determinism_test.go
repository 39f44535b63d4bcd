// Parallel-execution acceptance tests: a campaign's observable outputs —
// the rendered report, the deterministic metrics tables, and the run-
// history snapshot — must be byte-identical whether the campaign ran
// serially or on 8 workers, and the report and the snapshot also when it
// ran as two shard processes merged afterwards.
package dcelens

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// campaignArtifacts runs one campaign variant and renders every
// deterministic artifact.
type campaignArtifacts struct {
	report   string
	metrics  string
	snapshot string
}

func artifactsOf(t *testing.T, c *Campaign, reg *MetricsRegistry) campaignArtifacts {
	t.Helper()
	snap, err := NewRunSnapshot("dce-campaign", c, reg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return campaignArtifacts{
		report:   Report(c),
		metrics:  ReportMetrics(reg),
		snapshot: string(snap),
	}
}

// TestParallelCampaignByteIdentity: serial vs 8 workers vs two merged
// shard halves.
func TestParallelCampaignByteIdentity(t *testing.T) {
	const programs, baseSeed = 5, 900
	run := func(workers int, shard CampaignShard, cp *Checkpoint) (campaignArtifacts, *MetricsRegistry) {
		t.Helper()
		reg := NewDeterministicMetrics()
		c, err := RunCampaign(CampaignOptions{
			Programs: programs, BaseSeed: baseSeed,
			Workers: workers, Shard: shard,
			Metrics: reg, Checkpoint: cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return artifactsOf(t, c, reg), reg
	}

	serial, _ := run(1, CampaignShard{}, nil)
	parallel, _ := run(8, CampaignShard{}, nil)
	if parallel != serial {
		t.Errorf("8-worker artifacts differ from serial:\n--- serial\n%s%s%s\n--- parallel\n%s%s%s",
			serial.report, serial.metrics, serial.snapshot,
			parallel.report, parallel.metrics, parallel.snapshot)
	}

	// Two shard processes, each with its own checkpoint, registry, and
	// history snapshot.
	dir := t.TempDir()
	var paths []string
	var shardSnaps []*RunSnapshot
	for i := 0; i < 2; i++ {
		shard := CampaignShard{Index: i, Count: 2}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		reg := NewDeterministicMetrics()
		c, err := RunCampaign(CampaignOptions{
			Programs: programs, BaseSeed: baseSeed,
			Workers: 4, Shard: shard,
			Metrics: reg, Checkpoint: NewCheckpoint(path),
		})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		shardSnaps = append(shardSnaps, NewRunSnapshot("dce-campaign", c, reg))
	}

	merged, err := MergeCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	if got := Report(merged); got != serial.report {
		t.Errorf("merged-shard report differs from serial:\n--- serial\n%s\n--- merged\n%s", serial.report, got)
	}

	mergedSnap, err := MergeRunSnapshots(shardSnaps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mergedSnap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != serial.snapshot {
		t.Errorf("merged shard snapshot differs from serial:\n--- serial\n%s\n--- merged\n%s", serial.snapshot, b)
	}
}

// TestRemarksByteIdentity: a remark-collecting campaign's artifacts — the
// report (whose remark tables aggregate every seed), the per-finding
// nearest-miss narratives, and the chains themselves — must be
// byte-identical across worker counts and across a halt/resume, and every
// finding must carry a non-empty chain (dce's side-effects anchor at
// minimum).
func TestRemarksByteIdentity(t *testing.T) {
	const programs, baseSeed = 6, 1
	run := func(workers int, cp *Checkpoint, stop func() bool) *Campaign {
		t.Helper()
		c, err := RunCampaign(CampaignOptions{
			Programs: programs, BaseSeed: baseSeed, Workers: workers,
			Remarks: true, Checkpoint: cp, Stop: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	serial := run(1, nil, nil)
	if len(serial.Findings) == 0 {
		t.Fatal("campaign found nothing; the remark fixture needs a finding-bearing seed range")
	}
	for _, f := range serial.Findings {
		if len(f.Chain) == 0 {
			t.Errorf("finding %s (seed %d) has an empty nearest-miss chain", f.Marker, f.Seed)
		}
	}
	wantReport, wantNarrative := Report(serial), ExplainFindings(serial.Findings)

	parallel := run(8, nil, nil)
	if got := Report(parallel); got != wantReport {
		t.Errorf("8-worker remark report differs from serial:\n--- serial\n%s\n--- parallel\n%s", wantReport, got)
	}
	if got := ExplainFindings(parallel.Findings); got != wantNarrative {
		t.Errorf("8-worker narratives differ from serial:\n--- serial\n%s\n--- parallel\n%s", wantNarrative, got)
	}

	// Halt after two seeds, then resume on 8 workers: the chains ride the
	// checkpoint, so the merged view must reproduce the serial bytes.
	path := filepath.Join(t.TempDir(), "remarks-drain.json")
	var polls atomic.Int32
	interrupted := run(1, NewCheckpoint(path), func() bool { return polls.Add(1) > 2 })
	if interrupted.Skipped == 0 || interrupted.Skipped == programs {
		t.Fatalf("Skipped = %d, want a partial drain of %d seeds", interrupted.Skipped, programs)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := run(8, cp, nil)
	if got := Report(resumed); got != wantReport {
		t.Errorf("halt+resume remark report differs from serial:\n--- serial\n%s\n--- resumed\n%s", wantReport, got)
	}
	if got := ExplainFindings(resumed.Findings); got != wantNarrative {
		t.Errorf("halt+resume narratives differ from serial:\n--- serial\n%s\n--- resumed\n%s", wantNarrative, got)
	}
}

// TestDrainResumeByteIdentity: a campaign stopped cooperatively mid-run
// — the service drain path (CampaignOptions.Stop) — and then resumed
// from its checkpoint reports byte-identically to a campaign that was
// never interrupted.
func TestDrainResumeByteIdentity(t *testing.T) {
	const programs, baseSeed = 6, 400
	serial, err := RunCampaign(CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drain after two seeds: Stop is polled once per seed, the rest skip
	// and the checkpoint keeps only the completed ones.
	path := filepath.Join(t.TempDir(), "drain.json")
	var polls atomic.Int32
	interrupted, err := RunCampaign(CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 1,
		Checkpoint: NewCheckpoint(path),
		Stop:       func() bool { return polls.Add(1) > 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.Skipped == 0 || interrupted.Skipped == programs {
		t.Fatalf("Skipped = %d, want a partial drain of %d seeds", interrupted.Skipped, programs)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunCampaign(CampaignOptions{
		Programs: programs, BaseSeed: baseSeed, Workers: 8,
		Checkpoint: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Skipped != 0 {
		t.Fatalf("resumed run skipped %d seeds, want none", resumed.Skipped)
	}
	if got, want := Report(resumed), Report(serial); got != want {
		t.Errorf("drain+resume report differs from uninterrupted run:\n--- resumed\n%s\n--- serial\n%s", got, want)
	}
}
