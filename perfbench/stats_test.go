package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	// Unsorted input, and the caller's slice is left alone.
	ys := []float64{3, 1, 2}
	if got := percentile(ys, 50); got != 2 || ys[0] != 3 {
		t.Errorf("median of %v = %g", ys, got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	// Failures as +Inf count beyond every percentile: with 2 of 100
	// failed, p98 is finite and p99 lands on a failure.
	zs := make([]float64, 100)
	for i := range zs {
		zs[i] = float64(i)
	}
	zs[10], zs[20] = math.Inf(1), math.Inf(1)
	if got := percentile(zs, 98); got != 99 {
		t.Errorf("p98 = %g, want 99", got)
	}
	if got := percentile(zs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf", got)
	}
}

func TestJain(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 3, 3}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{1, 3}, 16.0 / 20},
	} {
		if got := jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("jain(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(jain([]float64{0, 0})) {
		t.Error("all-zero shares should give NaN")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &trace{}
	root := tr.add("root", -1, 0, 100)
	tr.add("a", root, 10, 30)
	tr.add("b", root, 20, 40) // overlaps a: the union 10..40 counts once
	c := tr.add("c", root, 90, 120)
	tr.add("grandchild", c, 95, 99) // not a direct child of root
	tr.add("d", root, 50, 50)
	if got := tr.selfTime(root); got != 100-30-10 {
		t.Errorf("root self time %v, want 60", got)
	}
	if got := tr.selfTime(c); got != 30-4 {
		t.Errorf("c self time %v, want 26", got)
	}
	if got := tr.selfTimesMs("a"); len(got) != 1 || got[0] != ms(20) {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}

// TestRequestSpans checks how a traced request splits into spans:
// lateness is the send time minus the scheduled time, queue and service
// follow the send, and nothing of the request is left outside a layer.
func TestRequestSpans(t *testing.T) {
	tr := &trace{}
	root := tr.add("phase.nominal", -1, 0, time.Second)
	r := record{sched: 1000, send: 1300, ret: 1400, done: 8300}
	r.resp.Queue, r.resp.Total = 2000, 7000
	requestSpans(tr, root, "serving", &r)
	want := map[string][2]time.Duration{
		"request":         {1000, 8300},
		"loadgen.late":    {1000, 1300},
		"serving.submit":  {1300, 1400},
		"serving.queue":   {1300, 3300},
		"serving.service": {3300, 8300},
	}
	for _, s := range tr.spans[1:] {
		if w := want[s.Name]; s.Start != w[0] || s.End != w[1] {
			t.Errorf("%s = [%v, %v], want %v", s.Name, s.Start, s.End, w)
		}
	}
	if got := tr.durationsMs(root, "loadgen.late"); len(got) != 1 || got[0] != ms(300) {
		t.Errorf("lateness %v, want 300ns", got)
	}
	if got := tr.selfTime(1); got != 0 {
		t.Errorf("request self time %v, want 0", got)
	}
	if got := r.latency(); got != 7300 {
		t.Errorf("latency %v, want 7.3µs", got)
	}
	// A shed request has no queue or service span.
	shed := record{sched: 2000, send: 2100, ret: 2150, done: 2150}
	n := len(tr.spans)
	requestSpans(tr, root, "serving", &shed)
	if len(tr.spans)-n != 3 {
		t.Errorf("shed request made %d spans, want 3", len(tr.spans)-n)
	}
}

func TestPoissonSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arr := poisson(rng, 1000, 10*time.Second, 2, 64)
	if n := len(arr); n < 9700 || n > 10300 {
		t.Fatalf("%d arrivals at 1000/s over 10 s", n)
	}
	var per [2]int
	for i, a := range arr {
		if i > 0 && a.at < arr[i-1].at {
			t.Fatal("arrivals out of order")
		}
		per[a.tenant]++
	}
	if d := per[0] - per[1]; d > 400 || d < -400 {
		t.Errorf("tenant mix %v, want about 1:1", per)
	}
	again := poisson(rand.New(rand.NewSource(7)), 1000, 10*time.Second, 2, 64)
	if len(again) != len(arr) || again[len(arr)/2] != arr[len(arr)/2] {
		t.Error("the same seed gave a different schedule")
	}
}

// TestMetricTables keeps the metric tables and BENCHMARK.json in step.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, table []metric) {
		if len(decl) != len(table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(decl), len(table))
		}
		for i := range decl {
			if decl[i].Name != table[i].name || decl[i].Unit != table[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, decl[i].Name, decl[i].Unit, table[i].name, table[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if layerUse[w.Name] == nil {
			t.Errorf("workload %s has no layer list", w.Name)
		}
	}
	if len(spec.Workloads) != len(layerUse) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(layerUse))
	}
}

// TestThroughput: batches of 8 every 10 ms are 800 responses/s, and a
// 200 ms stall followed by a catch-up burst does not move the estimate.
func TestThroughput(t *testing.T) {
	p := &phase{dur: 2 * time.Second}
	at := 200 * time.Millisecond
	for b := 0; at < p.dur; b++ {
		if b == 50 {
			at += 200 * time.Millisecond
		}
		for k := 0; k < 8; k++ {
			p.recs = append(p.recs, record{done: at + time.Duration(k)*time.Microsecond, out: outOK})
		}
		at += 10 * time.Millisecond
	}
	p.recs = append(p.recs, record{done: time.Second, out: outShed})
	if got := median(p.windowRates()); math.Abs(got-800)/800 > 0.01 {
		t.Errorf("throughput %g, want 800", got)
	}
}
