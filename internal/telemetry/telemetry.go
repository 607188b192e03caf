// Package telemetry is the observability layer of the reproduction: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket histograms
// with p50/p90/p99 summaries), lightweight tracing spans collected into a
// bounded in-memory ring, and an HTTP debug surface that wires expvar,
// net/http/pprof and JSON views of both.
//
// The paper's contribution is measurement-driven characterization
// (Section 3.3); this package turns the same discipline inward, onto the
// reproduction's own hot paths. internal/explore, internal/gpusim,
// internal/measure and internal/cluster record into the package-level
// Default registry and tracer, and cmd/ccperf exposes or dumps them
// (`ccperf serve`, `-metrics-out`, `-trace-out`).
//
// Everything is concurrency-safe by construction: counters and gauges are
// single atomics, histograms are atomic bucket arrays, and the span ring
// takes a short mutex only when a span finishes. Recording on a hot path
// costs a handful of atomic operations — cheap enough for the ~30k
// analytical-model evaluations of a Figure 9/10 enumeration.
package telemetry

import (
	"time"
)

// Default is the process-wide registry the instrumented packages record
// into. Tests that need isolation construct their own Registry.
var Default = NewRegistry()

// DefaultTracer is the process-wide span ring. Its capacity bounds memory:
// older spans are overwritten once the ring is full.
var DefaultTracer = NewTracer(DefaultTraceCapacity)

// DefaultTraceCapacity is the span ring size of DefaultTracer.
const DefaultTraceCapacity = 4096

// Reset clears the Default registry and tracer. CLI subcommands call it
// before a run so `-metrics-out` artifacts describe exactly one run.
func Reset() {
	Default.Reset()
	DefaultTracer.Reset()
}

// Snapshot captures one registry's state for export. It is the JSON
// artifact format of `-metrics-out` and `/metrics?format=json`, and the
// target format bench imports are converted into — one schema for every
// perf artifact so runs can be diffed with generic tooling.
type Snapshot struct {
	// UnixNano is the capture time.
	UnixNano int64 `json:"unix_nano"`
	// Counters are monotonic event counts.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges are last-written values.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms are distribution summaries keyed by metric name.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one histogram bucket: observations ≤ UpperBound that fell
// above the previous bound. The overflow bucket has UpperBound +Inf,
// marshalled as the string "+Inf" (JSON has no Inf literal).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

func now() int64 { return time.Now().UnixNano() }
