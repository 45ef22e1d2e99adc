#!/usr/bin/env bash
# Builds and runs the rapd benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload replay-gzip --seed 1 --seconds 36 --trace 0
#   bash bench/run.sh -seed 1                  # every workload plus the traced run
#   bash bench/run.sh -compare a.json b.json
#
# Every build product and temporary file stays under .bench_build/ in the
# repository root, including the Go build cache, so a fresh checkout pays
# one cold build and later runs reuse it. The Go configuration directory
# (telemetry counters) and GOPATH are pointed there too, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rapd" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (need go.mod, cmd/rapd and bench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/bench" -o "$build/bin/rapbench-harness" .
exec "$build/bin/rapbench-harness" -root "$root" "$@"
