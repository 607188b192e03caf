package explore

import (
	"context"
	"math"
	"sort"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/measure"
	"ccperf/internal/metrics"
	"ccperf/internal/models"
	"ccperf/internal/prune"
)

// The searches read each degree's batch times once per instance type and
// evaluate every configuration from them. The tests below hold them to a
// reference that evaluates each configuration straight from the harness's
// Perf, on the Figure 9/10 space: the planner's 60 sampled variants, every
// subset of the 3×3 p2 pool, 1M images, the paper's deadline and budget.

func fig910(t *testing.T, dist cloud.Distribution) (*measure.Harness, Input) {
	t.Helper()
	h := harness(t)
	keep := func(d prune.Degree) bool {
		a, err := h.Eval.Evaluate(d)
		return err == nil && a.Top1 >= 0.15
	}
	degrees := prune.SampleDegreesFiltered(models.CaffenetConvNames(), prune.Range(0, 0.9, 0.1), 60, 42, keep)
	if len(degrees) != 60 {
		t.Fatalf("sampled %d degrees, want 60", len(degrees))
	}
	return h, Input{
		Degrees: degrees, Pool: cloud.BuildPool(cloud.P2Types(), 3), W: 1_000_000,
		Deadline: 2270, Budget: 5, Metric: Top1, Dist: dist,
	}
}

// refEstimate evaluates one configuration from the harness's Perf.
func refEstimate(t *testing.T, h *measure.Harness, d prune.Degree, cfg cloud.Config, in Input) cloud.Estimate {
	t.Helper()
	est, err := cloud.EstimateRunWith(cfg, in.W, h.Perf(d, 0), in.Dist)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(got, want Result) bool {
	return got.Found == want.Found && got.Degree.Label() == want.Degree.Label() &&
		got.Acc == want.Acc && got.Config.Label() == want.Config.Label() &&
		sameBits(got.Seconds, want.Seconds) && sameBits(got.Cost, want.Cost) && got.Ops == want.Ops
}

var dists = []cloud.Distribution{cloud.EvenSplit, cloud.CapacityWeighted}

func TestEnumerateMatchesReference(t *testing.T) {
	for _, dist := range dists {
		h, in := fig910(t, dist)
		sp := Space{Pred: engine.NewCache(h), Degrees: in.Degrees, Pool: in.Pool, W: in.W, Dist: dist}
		cands, err := sp.Enumerate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		configs := cloud.Subsets(in.Pool)
		if len(cands) != 30660 {
			t.Fatalf("%v: %d candidates, want 30660", dist, len(cands))
		}
		for di, d := range in.Degrees {
			acc, err := h.Accuracy(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range configs {
				c := cands[di*len(configs)+ci]
				want := refEstimate(t, h, d, cfg, in)
				if c.Degree.Label() != d.Label() || c.Acc != acc || c.Config.Label() != cfg.Label() ||
					!sameBits(c.Seconds, want.Seconds) || !sameBits(c.Cost, want.Cost) {
					t.Fatalf("%v: candidate %s on %s = %v s, $%v; reference %v s, $%v",
						dist, c.Degree.Label(), c.Config.Label(), c.Seconds, c.Cost, want.Seconds, want.Cost)
				}
			}
		}
	}
}

// refExhaustive is Exhaustive's contract stated directly: the feasible
// configuration of highest accuracy, ties to lower cost, then lower time,
// then the first one met.
func refExhaustive(t *testing.T, h *measure.Harness, in Input) Result {
	t.Helper()
	best, ops := Result{}, 0
	for _, d := range in.Degrees {
		acc, err := h.Accuracy(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		a := in.Metric.Pick(acc)
		for _, cfg := range cloud.Subsets(in.Pool) {
			ops++
			est := refEstimate(t, h, d, cfg, in)
			if est.Seconds > in.Deadline || est.Cost > in.Budget {
				continue
			}
			ba := in.Metric.Pick(best.Acc)
			if !best.Found || a > ba || (a == ba && (est.Cost < best.Cost || (est.Cost == best.Cost && est.Seconds < best.Seconds))) {
				best = Result{Found: true, Degree: d, Acc: acc, Config: cfg, Seconds: est.Seconds, Cost: est.Cost}
			}
		}
	}
	best.Ops = ops
	return best
}

func TestExhaustiveMatchesReference(t *testing.T) {
	for _, dist := range dists {
		h, in := fig910(t, dist)
		got, err := Exhaustive(context.Background(), engine.NewCache(h), in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ops != 30660 {
			t.Fatalf("%v: Exhaustive made %d evaluations, want 30660", dist, got.Ops)
		}
		if want := refExhaustive(t, h, in); !sameResult(got, want) {
			t.Fatalf("%v: Exhaustive = %+v, reference %+v", dist, got, want)
		}
	}
}

// refAllocate is Algorithm 1 over the harness's Perf: degrees in
// rankDegrees order, each pool instance's CAR from its solo run, and the
// greedy prefix in ascending CAR (near-ties to the faster instance) until
// a prefix meets both constraints.
func refAllocate(t *testing.T, h *measure.Harness, in Input) Result {
	t.Helper()
	ranks, ops, err := rankDegrees(context.Background(), h, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, dr := range ranks {
		type solo struct {
			inst     *cloud.Instance
			car, sec float64
		}
		gs := make([]solo, len(in.Pool))
		for i, g := range in.Pool {
			est := refEstimate(t, h, dr.d, cloud.NewConfig(g), in)
			ops++
			gs[i] = solo{g, metrics.CAR(est.Cost, in.Metric.Pick(dr.acc)), est.Seconds}
		}
		sort.SliceStable(gs, func(x, y int) bool {
			cx, cy := gs[x].car, gs[y].car
			if math.Abs(cx-cy) > 0.01*math.Max(cx, cy) {
				return cx < cy
			}
			return gs[x].sec < gs[y].sec
		})
		var chosen []*cloud.Instance
		for _, g := range gs {
			chosen = append(chosen, g.inst)
			cfg := cloud.NewConfig(chosen...)
			est := refEstimate(t, h, dr.d, cfg, in)
			ops++
			if est.Seconds <= in.Deadline && est.Cost <= in.Budget {
				return Result{Found: true, Degree: dr.d, Acc: dr.acc, Config: cfg, Seconds: est.Seconds, Cost: est.Cost, Ops: ops}
			}
		}
	}
	return Result{Ops: ops}
}

func TestAllocateMatchesReference(t *testing.T) {
	for _, dist := range dists {
		h, in := fig910(t, dist)
		got, err := Allocate(context.Background(), engine.NewCache(h), in)
		if err != nil {
			t.Fatal(err)
		}
		if dist == cloud.EvenSplit && got.Ops != 106 {
			t.Fatalf("Allocate made %d evaluations, want 106", got.Ops)
		}
		if want := refAllocate(t, h, in); !sameResult(got, want) {
			t.Fatalf("%v: Allocate = %+v, reference %+v", dist, got, want)
		}
	}
}
