#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, and the full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast when the toolchain predates the module's go directive — without
# this the run dies later with a cryptic parse or vet error instead of
# naming the real problem.
mod_go=$(awk '/^go /{print $2; exit}' go.mod)
tool_go=$(go env GOVERSION | sed 's/^go//')
if [[ "$(printf '%s\n%s\n' "$mod_go" "$tool_go" | sort -V | head -1)" != "$mod_go" ]]; then
    echo "go toolchain $tool_go predates go.mod's required go $mod_go" >&2
    exit 1
fi

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...

# The benchmark harness is a separate module (dcebench/go.mod), so the
# root module's ./... skips it; vet and test it against this tree.
(cd dcebench && go vet ./... && go test ./...)

# The campaign layer is the only concurrent code: re-run the scheduler,
# harness, and corpus suites under the race detector (the metrics registry
# and event log are exercised by the corpus suite's resume test), plus the
# journal under every log and its tails, and the monitoring server,
# run-history, and service-mode job-engine layers that read campaign state
# while it mutates. The core suite compiles from several goroutines at once,
# sharing the optimizer's pooled pass scratch as the campaign's workers do.
go test -race ./internal/sched ./internal/harness ./internal/corpus \
    ./internal/journal ./internal/metrics ./internal/monitor ./internal/history \
    ./internal/service ./internal/span ./internal/remark ./internal/core

# Fuzz the decoders of the files a resume reopens: any journal file must
# resume to its complete lines plus the appended record, and any checkpoint
# file must either fail to load or survive a save and a reload.
go test -run '^$' -fuzz '^FuzzJournalResume$' -fuzztime 5s ./internal/journal
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 5s ./internal/harness

# Service smoke gate: build dce-serve and drive it with the load-test
# client — concurrent submissions against a tiny queue must produce 429s
# with Retry-After, every accepted job must report byte-identically to an
# in-process campaign (zero lost findings), and SIGTERM must drain to a
# clean exit 0.
serve_bin=$(mktemp -d)/dce-serve
trap 'rm -rf "$(dirname "$serve_bin")"' EXIT
go build -o "$serve_bin" ./cmd/dce-serve
go run ./scripts/loadtest.go -bin "$serve_bin"

# overhead_gate NAME BUDGET GATE: run Benchmark<NAME>Overhead's off/on
# arms and fail when on/off exceeds GATE. The gates are lenient because
# shared CI machines add noise that dwarfs the real cost; BUDGET is the
# nominal cost the message reports against.
overhead_gate() {
    local name=$1 budget=$2 gate=$3
    go test -run '^$' -bench "Benchmark${name}Overhead" -benchtime 2s . | awk -v name="$name" -v budget="$budget" -v gate="$gate" '
        $1 ~ "^Benchmark" name "Overhead/off" { off = $3 }
        $1 ~ "^Benchmark" name "Overhead/on"  { on = $3 }
        END {
            label = tolower(name)
            if (off == 0 || on == 0) { print label " overhead bench did not run" > "/dev/stderr"; exit 1 }
            ratio = on / off
            printf "%s overhead: %.1f%% (%s, gate %.0f%%)\n", label, (ratio - 1) * 100, budget, (gate - 1) * 100
            if (ratio > gate) { print label " overhead exceeds the gate" > "/dev/stderr"; exit 1 }
        }'
}

# Telemetry: the fully-instrumented unit must stay near the uninstrumented
# one.
overhead_gate Metrics "budget ~5%" 1.25
# Monitoring: a campaign with the live HTTP server bound and polled must
# stay near the server-less metered unit.
overhead_gate Monitor "budget ~5%" 1.25
# Span timeline: a campaign recording its full span timeline must stay near
# the bare campaign.
overhead_gate Span "budget ~3%" 1.25
# Remark collection: a campaign with -remarks (every pass emitting
# applied/missed remarks, the collector deduplicating and reducing them to
# chains) costs ~10% on this small fixture; the gate bounds drift on top
# of that. The remarks-off case is the real zero-cost claim — it shares
# the "off" arm with the bare pipeline, and the emission seam there is one
# pointer comparison per decision.
overhead_gate Remark "nominal ~10%" 1.35

# Allocation-regression gate: allocs/op of the standard compile unit must
# stay within 10% of the recorded baseline (scripts/alloc-baseline.txt).
# Unlike wall time, allocation counts are nearly deterministic for the
# fixed benchmark seed (pooled pass scratch dropped at a garbage collection
# moves them by about 0.1%), so this catches churn regressions (a pass
# reintroducing per-iteration map rebuilds, say) that timing gates would
# hide in noise.
baseline=$(grep -v '^#' scripts/alloc-baseline.txt | head -1)
go test -run '^$' -bench 'BenchmarkUnitCompile$' -benchmem -benchtime 5x . | awk -v base="$baseline" '
    /BenchmarkUnitCompile/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i }
    END {
        if (allocs == 0) { print "unit compile bench did not run" > "/dev/stderr"; exit 1 }
        ratio = allocs / base
        printf "unit compile allocations: %d/op (baseline %d, gate +10%%)\n", allocs, base
        if (ratio > 1.10) { print "allocs/op regressed beyond the gate; if intentional, re-record scripts/alloc-baseline.txt" > "/dev/stderr"; exit 1 }
    }'

# Parallel scaling gate: the scheduler must buy real throughput, not just
# pass the determinism tests. Requires ≥4 CPUs — with fewer, the workers
# time-slice the same cores and no wall-clock speedup is physically
# possible, so the gate is skipped (the determinism and race suites above
# still exercise the parallel paths).
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [[ "$ncpu" -ge 4 ]]; then
    go test -run '^$' -bench 'BenchmarkCampaignParallel/(j1|j4)$' -benchtime 3x . | awk '
        /BenchmarkCampaignParallel\/j1/ { j1 = $3 }
        /BenchmarkCampaignParallel\/j4/ { j4 = $3 }
        END {
            if (j1 == 0 || j4 == 0) { print "parallel campaign bench did not run" > "/dev/stderr"; exit 1 }
            speedup = j1 / j4
            printf "campaign -j 4 speedup: %.2fx (gate 1.5x)\n", speedup
            if (speedup < 1.5) { print "parallel campaign speedup below the gate" > "/dev/stderr"; exit 1 }
        }'
else
    echo "campaign -j 4 speedup gate skipped: only $ncpu CPU(s) available (need >= 4)"
fi
