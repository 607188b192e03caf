#!/bin/sh
# Tier-1+ gate: everything a PR must pass before merge (see ROADMAP.md).
# Runs formatting, vet, build, the full test suite under the race
# detector, and a two-count one-iteration benchmark smoke pass.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== load generator flake leg (-race -count 3)"
# The replay loop, the per-replica workspaces and the HTTP handlers run
# timing-dependent goroutines; repeating them under the race detector
# catches a flake that one pass lets through.
go test -race -count 3 -run 'RunLoad|Replay|Pooled|Handler' \
    ./internal/serving ./internal/tenant ./internal/shard

echo "== bench smoke (go test -run - -bench . -benchtime 1x -count 2)"
mkdir -p out
# -count 2 gives every timing unit two samples, so the benchdiff gate can
# run a real Welch test instead of the raw-threshold fallback — on a noisy
# shared box a single 1x iteration of a millisecond-scale benchmark swings
# well past any sane threshold without any code change.
go test -run - -bench . -benchmem -benchtime 1x -count 2 \
    . ./internal/nn ./internal/explore ./internal/engine ./internal/serving ./internal/tenant ./internal/shard | tee out/bench-check.txt

echo "== gated gateway benchmarks at a real b.N (-benchtime 100ms)"
# The smoke above runs one iteration; this leg makes the gated serving
# benchmarks prove they finish (drain, queue-full absorption) at the
# b.N a trajectory recording uses.
go test -run - -bench 'GatewayThroughput|TenantFairness' -benchtime 100ms \
    ./internal/serving ./internal/tenant

# Regression gate: diff the smoke run against the latest committed
# trajectory point. The smoke is single-iteration and the baseline may
# come from a different machine, so the default threshold is generous
# (0.5 = 50%) — it catches order-of-magnitude breakage, not noise; the
# committed-vs-committed trajectory carries the fine-grained story.
# BENCHDIFF_SKIP=1 escapes the gate; an intentional perf change is
# blessed by committing a fresh BENCH_<n+1>.json (docs/TELEMETRY.md).
baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)
if [ "${BENCHDIFF_SKIP:-0}" = "1" ]; then
    echo "== benchdiff gate skipped (BENCHDIFF_SKIP=1)"
elif [ -z "$baseline" ]; then
    echo "== benchdiff gate skipped (no committed BENCH_*.json baseline)"
else
    echo "== benchdiff gate (vs $baseline, threshold ${BENCHDIFF_THRESHOLD:-0.5})"
    go run ./cmd/ccperf benchjson -in out/bench-check.txt \
        -sha "$(git rev-parse --short HEAD 2>/dev/null || echo nogit)" \
        -benchtime 1x -count 2 -note check.sh -out out/bench-check.json
    go run ./cmd/ccperf benchdiff \
        -threshold "${BENCHDIFF_THRESHOLD:-0.5}" -fail-on-regression \
        "$baseline" out/bench-check.json
fi

echo "== loadtest smoke (race-enabled gateway replay)"
go run -race ./cmd/ccperf loadtest \
    -requests 300 -duration 2s -windows 4 -replicas 1 \
    -queue 16 -max-batch 4 -slo 5ms -deadline 250ms -cooldown 300ms

echo "== chaos smoke (breakers + retries under canned faults, error-rate gate)"
go run -race ./cmd/ccperf loadtest \
    -requests 300 -duration 2s -windows 4 -replicas 2 \
    -queue 64 -max-batch 4 -slo 5ms -deadline 250ms \
    -chaos -max-error-rate 0.75

echo "== autoscale smoke (cost-accuracy loop; exits non-zero past the budget or p99 gate)"
go run -race ./cmd/ccperf loadtest \
    -requests 300 -duration 2s -windows 4 \
    -queue 64 -max-batch 4 -slo 50ms -deadline 500ms -cooldown 300ms \
    -autoscale -budget 2.7 -min-replicas 1 -max-replicas 3 \
    -autoscale-interval 100ms -max-p99 2s

echo "== tenant autoscale smoke (the same scaler over a two-tenant fleet; budget and p99 gates)"
go run -race ./cmd/ccperf loadtest \
    -tenants examples/tenants.json -duration 2s -replicas 1 -max-batch 4 \
    -autoscale -budget 2.7 -min-replicas 1 -max-replicas 3 \
    -autoscale-interval 100ms -max-p99 2s

echo "== sharded chaos smoke (3 shards / 2 regions, correlated regional failure mid-replay)"
# The resilience claim, gated: us-east goes dark for the middle third of
# the replay under a 2x spot spike, and client-visible errors must stay
# under 1% — requests re-route, fail over, or shift; they do not fail.
go run -race ./cmd/ccperf loadtest \
    -shards 3 -regions us-west,us-east -requests 200 -duration 3s \
    -replicas 2 -queue 64 -max-batch 4 -deadline 1s -cooldown 300ms \
    -shape "flash:0.5+0.05+0.2x2" -origin-corr 0.5 \
    -faults "region@us-east:1+1,spot@us-east:0+3x2,seed=9" \
    -max-error-rate 0.01

echo "== tenant chaos smoke (two-tenant fleet under canned faults, error-rate gate)"
go run -race ./cmd/ccperf loadtest \
    -tenants examples/tenants.json -duration 2s \
    -replicas 2 -max-batch 4 \
    -faults "err:0.05,seed=11" -max-error-rate 0.75

echo "== fault-injected simulate smoke (preemption + straggler schedule)"
go run ./cmd/ccperf simulate \
    -fleet 2xp2.xlarge -degree conv1@30+conv2@50 \
    -faults "preempt@0:21600,slow@1:30000+3600x2,seed=7"

echo "== predict smoke (leave-one-out transfer fit, 5% held-out error gate)"
# The fit recovers the simulated device model up to measurement jitter
# (±3%); 5% is breakage, not noise. The -train leg exercises the
# training cost model end-to-end on a mixed measured+transferred fleet.
go run ./cmd/ccperf predict -max-error 5
go run ./cmd/ccperf predict -max-error 5 \
    -train -samples 120000 -epochs 2 \
    -fleet "1xp3.2xlarge+1xp2.8xlarge" -jobs 2 -deadline-hours 24

echo "check.sh: all gates passed"
