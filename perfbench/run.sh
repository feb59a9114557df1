#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it. All
# build state and scratch data stay under <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload pipeline --seed 1 --repeat 5
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the go command's cache, module path, config (telemetry counters)
# and temporary files inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The build fails (and no result is printed) when the program sources
# are not next to the benchmark.
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
