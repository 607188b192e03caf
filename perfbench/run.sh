#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload serve-dense --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (Go build cache, temporary files, telemetry
# counters, binary, span files) goes under .bench_build/ at the checkout
# root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench.$$" .)
mv -f "$out/perfbench.$$" "$out/perfbench"
sha=none
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	sha=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
PERFBENCH_GIT_SHA=$sha exec "$out/perfbench" "$@"
