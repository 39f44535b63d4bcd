#!/usr/bin/env bash
# Builds the dcelens benchmark and the dce-serve binary from the checkout
# that contains this directory, then runs one workload:
#
#   bash dcebench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ at
# the root of the checkout. The last line of standard output is the JSON
# result; see dcebench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "dcebench: $root does not hold the dcelens sources (go.mod, internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/dcebench" && go build -o "$build/bin/dcebench" . && go build -o "$build/bin/dce-serve" dcelens/cmd/dce-serve)

cd "$root"
exec "$build/bin/dcebench" -serve-bin "$build/bin/dce-serve" -scratch "$build/run" "$@"
