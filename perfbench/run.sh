#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given flags, for example:
#
#   bash perfbench/run.sh --workload vision-gateway --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file (CPU profiles, span files) stay under
# .bench_build/ there; the benchmark reads and writes nothing else.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# The go command keeps telemetry counters under the user's config
# directory; point that, and anything else keyed on HOME, inside too.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
