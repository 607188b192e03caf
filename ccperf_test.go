package ccperf

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ccperf/internal/prune"
)

func TestNewSystemModels(t *testing.T) {
	for _, m := range []string{Caffenet, Googlenet} {
		sys, err := NewSystem(m)
		if err != nil {
			t.Fatalf("NewSystem(%s): %v", m, err)
		}
		top1, top5 := sys.Baseline()
		if top1 <= 0 || top5 < top1 {
			t.Fatalf("%s baseline = %v/%v", m, top1, top5)
		}
	}
	if _, err := NewSystem("resnet"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSystemMeasure(t *testing.T) {
	sys, err := NewSystem(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Measure(context.Background(), prune.NewDegree("conv2", 0.5), "p2.xlarge", W50k)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seconds/60 < 15 || rec.Seconds/60 > 18 {
		t.Fatalf("conv2@50%% time = %v min, want ~16.7", rec.Seconds/60)
	}
	if _, err := sys.Measure(context.Background(), prune.Degree{}, "nope", W50k); err == nil {
		t.Fatal("expected error for unknown instance")
	}
}

func TestSystemSweetSpots(t *testing.T) {
	sys, err := NewSystem(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	spots, err := sys.SweetSpots(context.Background(), []string{"conv1", "conv2"}, W50k)
	if err != nil {
		t.Fatal(err)
	}
	if len(spots) != 2 {
		t.Fatalf("%d spots", len(spots))
	}
	if math.Abs(spots[0].MaxRatio-0.3) > 1e-9 {
		t.Errorf("conv1 sweet-spot = %v, want 0.3", spots[0].MaxRatio)
	}
	if math.Abs(spots[1].MaxRatio-0.5) > 1e-9 {
		t.Errorf("conv2 sweet-spot = %v, want 0.5", spots[1].MaxRatio)
	}
	for _, s := range spots {
		if s.TimeSavedPct <= 0 {
			t.Errorf("%s saves no time at its sweet-spot", s.Layer)
		}
	}
}

func TestPlannerAllocateRespectsConstraints(t *testing.T) {
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Images: W1M, DeadlineHours: 0.63, BudgetUSD: 5}
	plan, err := p.Allocate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Found {
		t.Fatal("expected a feasible plan")
	}
	if plan.Hours > 0.63 || plan.CostUSD > 5 {
		t.Fatalf("plan violates constraints: %+v", plan)
	}
	if plan.Degree == "" || plan.Config == "" {
		t.Fatalf("plan incomplete: %+v", plan)
	}
}

func TestPlannerGreedyNeverBeatsExhaustive(t *testing.T) {
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{3, 5, 8} {
		req := Request{Images: W1M, DeadlineHours: 0.75, BudgetUSD: budget, Variants: 25}
		g, err := p.Allocate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.AllocateExhaustive(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if g.Found && !e.Found {
			t.Fatalf("budget %v: greedy found a plan the exhaustive search missed", budget)
		}
		if g.Found && g.Top1 > e.Top1+1e-9 {
			t.Fatalf("budget %v: greedy %v beats optimum %v", budget, g.Top1, e.Top1)
		}
		if g.Found && g.Ops >= e.Ops {
			t.Fatalf("budget %v: greedy ops %d not below exhaustive %d", budget, g.Ops, e.Ops)
		}
	}
}

func TestPlannerFrontiers(t *testing.T) {
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	n, tf, cf, err := p.Frontiers(context.Background(), Request{Images: W1M, DeadlineHours: 0.63, Variants: 20})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || len(tf) == 0 || len(cf) == 0 {
		t.Fatalf("feasible=%d tf=%d cf=%d", n, len(tf), len(cf))
	}
	// Frontier points must be strictly increasing in both accuracy and
	// objective.
	for i := 1; i < len(tf); i++ {
		if tf[i].Accuracy <= tf[i-1].Accuracy || tf[i].Hours <= tf[i-1].Hours {
			t.Fatalf("time frontier not increasing at %d", i)
		}
	}
	for i := 1; i < len(cf); i++ {
		if cf[i].Accuracy <= cf[i-1].Accuracy || cf[i].CostUSD <= cf[i-1].CostUSD {
			t.Fatalf("cost frontier not increasing at %d", i)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	if err := (Request{Images: 0}).Validate(); err == nil {
		t.Fatal("expected error for zero images")
	}
	if err := (Request{Images: 10, DeadlineHours: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative deadline")
	}
	if err := (Request{Images: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerUnknownPoolType(t *testing.T) {
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Allocate(context.Background(), Request{Images: 100, PoolTypes: []string{"m5.large"}})
	if err == nil || !strings.Contains(err.Error(), "unknown instance") {
		t.Fatalf("err = %v", err)
	}
}

func TestGooglenetPlanner(t *testing.T) {
	p, err := NewPlanner(Googlenet)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Allocate(context.Background(), Request{Images: 200_000, DeadlineHours: 5, BudgetUSD: 50, Variants: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Found {
		t.Fatal("expected feasible googlenet plan")
	}
}

func TestCapacityWeightedNeverSlower(t *testing.T) {
	// With the same constraints, the capacity-weighted split can only
	// improve (or match) the accuracy Algorithm 1 reaches, since every
	// configuration gets faster or stays equal.
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	base := Request{Images: W1M, DeadlineHours: 0.4, BudgetUSD: 4, Variants: 20}
	even, err := p.Allocate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	weighted := base
	weighted.CapacityWeighted = true
	w, err := p.Allocate(context.Background(), weighted)
	if err != nil {
		t.Fatal(err)
	}
	if even.Found && !w.Found {
		t.Fatal("weighted split lost a feasible plan")
	}
	if even.Found && w.Found && w.Top1 < even.Top1-1e-9 {
		t.Fatalf("weighted plan accuracy %v below even-split %v", w.Top1, even.Top1)
	}
}

func TestEmpiricalEvaluatorAccessor(t *testing.T) {
	e := EmpiricalEvaluator()
	b := e.Baseline()
	if b.Top1 < 0.4 {
		t.Fatalf("empirical baseline = %v", b.Top1)
	}
}

func TestAccessors(t *testing.T) {
	sys, err := NewSystem(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Predictor() == nil {
		t.Fatal("Predictor accessor")
	}
	p, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	if p.System() == nil || p.System().Model != Caffenet {
		t.Fatal("System accessor")
	}
}

// plannerAnswers is everything one planner returns for one request.
type plannerAnswers struct {
	feasible          int
	time, cost        []FrontierPoint
	alloc, exhaustive Plan
}

func answerAll(ctx context.Context, p *Planner, r Request) (plannerAnswers, error) {
	var a plannerAnswers
	var err error
	if a.feasible, a.time, a.cost, err = p.Frontiers(ctx, r); err != nil {
		return a, err
	}
	if a.alloc, err = p.Allocate(ctx, r); err != nil {
		return a, err
	}
	a.exhaustive, err = p.AllocateExhaustive(ctx, r)
	return a, err
}

// TestPlannerSharedMatchesFresh shares one planner between goroutines that
// ask for two variant samples (two seeds) at once, and requires every
// answer to equal a fresh planner's: the per-planner sample memo must
// neither mix the seeds up nor race (run it under -race).
func TestPlannerSharedMatchesFresh(t *testing.T) {
	ctx := context.Background()
	reqs := []Request{
		{Images: W1M, DeadlineHours: Fig9DeadlineSeconds / 3600, BudgetUSD: Fig10BudgetUSD, Seed: 42},
		{Images: W1M, DeadlineHours: Fig9DeadlineSeconds / 3600, BudgetUSD: Fig10BudgetUSD, Seed: 7},
	}
	want := make([]plannerAnswers, len(reqs))
	for i, r := range reqs {
		p, err := NewPlanner(Caffenet)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = answerAll(ctx, p, r); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("the two seeds give the same answers; the test cannot tell them apart")
	}

	shared, err := NewPlanner(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	const perSeed = 3
	got := make([]plannerAnswers, len(reqs)*perSeed)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = answerAll(ctx, shared, reqs[g%len(reqs)])
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if w := want[g%len(reqs)]; !reflect.DeepEqual(got[g], w) {
			t.Fatalf("goroutine %d (seed %d): shared planner answered %+v, fresh planner %+v", g, reqs[g%len(reqs)].Seed, got[g], w)
		}
	}
}
