package main

import (
	"fmt"
	"math"
	"strings"
)

// metric is one reported number. The two tables below must list exactly
// what BENCHMARK.json declares, in the same order (TestMetricTables
// checks it).
type metric struct {
	name, unit string
}

// endToEnd are the numbers a user of the system sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
}

// perLayer are the traced run's numbers, one layer per name prefix. A
// workload reports 0 for the layers its requests never reach (layerUse).
var perLayer = []metric{
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"serving.submit_us", "us"},
	{"serving.queue_p50_ms", "ms"},
	{"serving.queue_p99_ms", "ms"},
	{"serving.service_ms", "ms"},
	{"serving.batch_mean", "count"},
	{"serving.shed_ratio", "ratio"},
	{"serving.retry_ratio", "ratio"},
	{"tenant.submit_us", "us"},
	{"tenant.queue_p50_ms", "ms"},
	{"tenant.queue_p99_ms", "ms"},
	{"tenant.service_ms", "ms"},
	{"tenant.batch_mean", "count"},
	{"tenant.shed_ratio", "ratio"},
	{"tenant.retry_ratio", "ratio"},
	{"tenant.served_ratio", "ratio"},
	{"tenant.fairness", "ratio"},
	{"nn.forward_ms_b1", "ms"},
	{"nn.forward_ms_b8", "ms"},
	{"nn.layer.conv1_ms", "ms"},
	{"nn.layer.pool1_ms", "ms"},
	{"nn.layer.conv2_ms", "ms"},
	{"nn.layer.pool2_ms", "ms"},
	{"nn.layer.fc1_ms", "ms"},
	{"nn.layer.prob_ms", "ms"},
	{"nn.glue_ms", "ms"},
	{"nn.allocs_per_forward", "count"},
	{"tensor.im2col_us.conv1", "us"},
	{"tensor.im2col_us.conv2", "us"},
	{"tensor.gemm_us.conv1", "us"},
	{"tensor.gemm_us.conv2", "us"},
	{"tensor.gemm_gflops.conv2", "GFLOP/s"},
	{"explore.enumerate_ms", "ms"},
	{"explore.enumerate_warm_ms", "ms"},
	{"explore.feasible_ms", "ms"},
	{"explore.frontier_ms", "ms"},
	{"explore.candidates", "count"},
	{"explore.alloc_evals", "count"},
	{"explore.exhaustive_evals", "count"},
	{"engine.calls", "count"},
	{"engine.fills", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.fill_ms", "ms"},
	{"cloud.perf_calls", "count"},
	{"cloud.perf_us", "us"},
	{"plan.cold_ms", "ms"},
	{"plan.warm_ms", "ms"},
	{"plan.alloc_ms", "ms"},
	{"plan.exhaustive_ms", "ms"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_p90_pct", "%"},
	{"trace.overhead_peak_rps_pct", "%"},
}

// layerOf is a per-layer metric's layer: the name up to the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// values collects one run's metrics by name.
type values map[string]float64

// pick returns the table's metrics in order. A metric of a layer the
// workload uses must have been measured; one of a layer it never reaches
// reads 0. Non-finite values are refused, since JSON cannot carry them.
func (v values) pick(table []metric, uses map[string]bool) ([]float64, error) {
	out := make([]float64, len(table))
	for i, m := range table {
		x, ok := v[m.name]
		if !ok {
			if uses != nil && !uses[layerOf(m.name)] {
				continue
			}
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, x)
		}
		out[i] = x
	}
	return out, nil
}
