package explore

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/prune"
	"ccperf/internal/telemetry"
)

func harness(t *testing.T) *measure.Harness {
	t.Helper()
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func smallPool(t *testing.T) []*cloud.Instance {
	t.Helper()
	a, err := cloud.ByName("p2.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cloud.ByName("p2.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return []*cloud.Instance{a, a, b, b}
}

func someDegrees() []prune.Degree {
	return []prune.Degree{
		{},
		prune.NewDegree("conv2", 0.5),
		prune.NewDegree("conv1", 0.3, "conv2", 0.5),
		prune.NewDegree("conv1", 0.7, "conv2", 0.8),
	}
}

func TestEnumerateCount(t *testing.T) {
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	cands, err := sp.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := len(someDegrees()) * ((1 << 4) - 1)
	if len(cands) != want {
		t.Fatalf("candidates = %d, want %d", len(cands), want)
	}
	for _, c := range cands {
		if c.Seconds <= 0 || c.Cost <= 0 || !c.Acc.Valid() {
			t.Fatalf("bad candidate %+v", c)
		}
	}
}

func TestEnumerateCachedMatchesUncached(t *testing.T) {
	h := harness(t)
	ctx := context.Background()
	plain := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	want, err := plain.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cached := plain
	cached.Pred = engine.NewCache(h)
	got, err := cached.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Seconds != want[i].Seconds || got[i].Cost != want[i].Cost ||
			got[i].Acc != want[i].Acc || got[i].Config.Label() != want[i].Config.Label() {
			t.Fatalf("cached enumeration diverges at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestEnumerateCanceled(t *testing.T) {
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sp.Enumerate(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enumerate error = %v, want context.Canceled", err)
	}
}

func TestFeasibleFilter(t *testing.T) {
	cands := []Candidate{
		{Seconds: 100, Cost: 5},
		{Seconds: 200, Cost: 1},
		{Seconds: 50, Cost: 10},
	}
	f := Feasible(cands, 150, 6)
	if len(f) != 1 || f[0].Seconds != 100 {
		t.Fatalf("feasible = %+v", f)
	}
	if got := Feasible(cands, math.Inf(1), math.Inf(1)); len(got) != 3 {
		t.Fatalf("unbounded feasible = %d", len(got))
	}
}

func TestFrontierPicksNonDominated(t *testing.T) {
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	cands, err := sp.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(cands, ByTime, Top5)
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	// Frontier must be strictly increasing in accuracy and time.
	for i := 1; i < len(fr); i++ {
		if fr[i].Acc.Top5 <= fr[i-1].Acc.Top5 || fr[i].Seconds <= fr[i-1].Seconds {
			t.Fatalf("frontier not strictly increasing at %d", i)
		}
	}
	// No candidate dominates a frontier point.
	for _, p := range fr {
		for _, c := range cands {
			if c.Acc.Top5 >= p.Acc.Top5 && c.Seconds < p.Seconds {
				t.Fatalf("candidate %+v dominates frontier point %+v", c, p)
			}
		}
	}
	// The highest-accuracy frontier point reaches baseline accuracy —
	// via the unpruned degree or a sweet-spot degree (conv2@50 matches
	// unpruned accuracy at lower time, so it wins the frontier slot).
	base, _ := h.Eval.Evaluate(prune.Degree{})
	if top := fr[len(fr)-1]; top.Acc.Top5 != base.Top5 {
		t.Fatalf("top frontier accuracy = %v, want baseline %v", top.Acc.Top5, base.Top5)
	}
}

func TestCostFrontier(t *testing.T) {
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	cands, _ := sp.Enumerate(context.Background())
	fr := Frontier(cands, ByCost, Top1)
	for i := 1; i < len(fr); i++ {
		if fr[i].Cost <= fr[i-1].Cost {
			t.Fatalf("cost frontier not increasing at %d", i)
		}
	}
}

func TestAllocateMeetsConstraints(t *testing.T) {
	h := harness(t)
	in := Input{
		Degrees:  someDegrees(),
		Pool:     smallPool(t),
		W:        100_000,
		Deadline: 2 * 3600,
		Budget:   5,
	}
	res, err := Allocate(context.Background(), h, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected a feasible allocation")
	}
	if res.Seconds > in.Deadline || res.Cost > in.Budget {
		t.Fatalf("allocation violates constraints: %+v", res)
	}
	if res.Config.Empty() {
		t.Fatal("empty config returned")
	}
	if res.Ops <= 0 {
		t.Fatal("ops not instrumented")
	}
}

func TestAllocatePrefersAccuracy(t *testing.T) {
	// With loose constraints, Algorithm 1 must pick the unpruned
	// (highest-accuracy) degree.
	h := harness(t)
	in := Input{
		Degrees:  someDegrees(),
		Pool:     smallPool(t),
		W:        100_000,
		Deadline: math.Inf(1),
		Budget:   math.Inf(1),
	}
	res, err := Allocate(context.Background(), h, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected allocation")
	}
	// conv2@50 sits inside the sweet-spot: same accuracy as unpruned but
	// lower TAR, so Algorithm 1's tie-break (line 1: same accuracy →
	// ascending TAR) must prefer it over the unpruned degree.
	base, _ := h.Eval.Evaluate(prune.Degree{})
	if res.Acc.Top1 != base.Top1 {
		t.Fatalf("allocation accuracy %v, want baseline %v", res.Acc.Top1, base.Top1)
	}
	if res.Degree.Label() != "conv2@50" {
		t.Fatalf("allocation degree = %s, want conv2@50 (lowest TAR at max accuracy)", res.Degree.Label())
	}
}

func TestAllocateInfeasible(t *testing.T) {
	h := harness(t)
	in := Input{
		Degrees:  someDegrees(),
		Pool:     smallPool(t),
		W:        10_000_000,
		Deadline: 60, // one minute: impossible
		Budget:   0.01,
	}
	res, err := Allocate(context.Background(), h, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("expected infeasible, got %+v", res)
	}
}

func TestAllocateEmptyPool(t *testing.T) {
	h := harness(t)
	ctx := context.Background()
	if _, err := Allocate(ctx, h, Input{Degrees: someDegrees()}); err == nil {
		t.Fatal("expected error for empty pool")
	}
	if _, err := Exhaustive(ctx, h, Input{Degrees: someDegrees()}); err == nil {
		t.Fatal("expected error for empty pool")
	}
}

func TestAllocateCanceled(t *testing.T) {
	h := harness(t)
	in := Input{
		Degrees:  someDegrees(),
		Pool:     smallPool(t),
		W:        100_000,
		Deadline: math.Inf(1),
		Budget:   math.Inf(1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Allocate(ctx, h, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("Allocate error = %v, want context.Canceled", err)
	}
	if _, err := Exhaustive(ctx, h, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exhaustive error = %v, want context.Canceled", err)
	}
}

func TestGreedyVsExhaustive(t *testing.T) {
	h := harness(t)
	ctx := context.Background()
	in := Input{
		Degrees:  someDegrees(),
		Pool:     smallPool(t),
		W:        1_000_000,
		Deadline: 1.5 * 3600,
		Budget:   6,
	}
	greedy, err := Allocate(ctx, h, in)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exhaustive(ctx, h, in)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Found != true {
		t.Fatal("exhaustive found nothing; pick looser constraints")
	}
	if greedy.Found {
		// The heuristic never beats the optimum on accuracy, and both
		// respect the constraints.
		if greedy.Acc.Top1 > exact.Acc.Top1+1e-9 {
			t.Fatalf("greedy accuracy %v exceeds exhaustive %v", greedy.Acc.Top1, exact.Acc.Top1)
		}
		if greedy.Seconds > in.Deadline || greedy.Cost > in.Budget {
			t.Fatalf("greedy violates constraints: %+v", greedy)
		}
	}
	// The paper's complexity claim: greedy does fewer model evaluations
	// than the exponential enumeration (the gap grows exponentially with
	// |G|; at |G|=4 it is modest — TestOpsFormulas covers the asymptotics).
	if greedy.Ops >= exact.Ops {
		t.Fatalf("greedy ops %d not < exhaustive ops %d", greedy.Ops, exact.Ops)
	}
}

func TestOpsFormulas(t *testing.T) {
	if got := ExhaustiveOps(4, 9); got != 4*511 {
		t.Fatalf("ExhaustiveOps = %d", got)
	}
	if got := GreedyOpsBound(4, 9); got != 4*19 {
		t.Fatalf("GreedyOpsBound = %d", got)
	}
	if ExhaustiveOps(1, 63) != math.MaxInt {
		t.Fatal("overflow guard missing")
	}
	// The polynomial/exponential gap grows with |G|.
	if !(float64(GreedyOpsBound(1, 20))/float64(ExhaustiveOps(1, 20)) <
		float64(GreedyOpsBound(1, 10))/float64(ExhaustiveOps(1, 10))) {
		t.Fatal("gap must grow with pool size")
	}
}

func TestMetricPick(t *testing.T) {
	h := harness(t)
	a, err := h.Eval.Evaluate(prune.Degree{})
	if err != nil {
		t.Fatal(err)
	}
	if Top1.Pick(a) != a.Top1 || Top5.Pick(a) != a.Top5 {
		t.Fatal("metric pick wrong")
	}
}

func TestCandidateHours(t *testing.T) {
	c := Candidate{Seconds: 7200}
	if c.Hours() != 2 {
		t.Fatalf("Hours = %v", c.Hours())
	}
}

func TestEnumerateDeterministicUnderConcurrency(t *testing.T) {
	h := harness(t)
	ctx := context.Background()
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 200_000}
	a, err := sp.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Seconds != b[i].Seconds || a[i].Cost != b[i].Cost ||
			a[i].Degree.Label() != b[i].Degree.Label() || a[i].Config.Label() != b[i].Config.Label() {
			t.Fatalf("enumeration not deterministic at %d", i)
		}
	}
}

// TestWorkersConfigurable pins the worker-pool contract: identical output
// at every pool size, default runtime.NumCPU() capped by |P|, floor of 1.
func TestWorkersConfigurable(t *testing.T) {
	h := harness(t)
	ctx := context.Background()
	base := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000}
	want, err := base.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 16} {
		sp := base
		sp.Workers = workers
		got, err := sp.Enumerate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Seconds != want[i].Seconds || got[i].Cost != want[i].Cost ||
				got[i].Degree.Label() != want[i].Degree.Label() || got[i].Config.Label() != want[i].Config.Label() {
				t.Fatalf("workers=%d: candidate %d differs", workers, i)
			}
		}
	}
	if w := base.workers(); w != min(runtime.NumCPU(), len(base.Degrees)) {
		t.Fatalf("default workers = %d", w)
	}
	// A negative count means the default, like 0: NumCPU capped by |P|.
	neg := Space{Pred: h, Degrees: someDegrees(), Workers: -5}
	if got, want := neg.workers(), (&Space{Degrees: someDegrees()}).workers(); got != want {
		t.Fatalf("Workers -5 resolves to %d, want the Workers 0 default %d", got, want)
	}
	// With no degrees there is no unit of work to cap by, yet the pool
	// still has one worker.
	if w := (&Space{Pred: h, Workers: 4}).workers(); w != 1 {
		t.Fatalf("empty degree set must floor at 1 worker, got %d", w)
	}
}

// TestEnumerateTelemetry checks the instrumentation contract the CLI
// artifacts rely on: one explore.worker span per pool worker and candidate
// counters matching the enumeration size.
func TestEnumerateTelemetry(t *testing.T) {
	telemetry.Reset()
	defer telemetry.Reset()
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 100_000, Workers: 2}
	cands, err := sp.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.Default.Counter("explore.candidates_enumerated").Value(); got != int64(len(cands)) {
		t.Fatalf("candidates counter = %d, want %d", got, len(cands))
	}
	if got := telemetry.Default.Counter("explore.degrees_evaluated").Value(); got != int64(len(sp.Degrees)) {
		t.Fatalf("degrees counter = %d, want %d", got, len(sp.Degrees))
	}
	if got := telemetry.Default.Gauge("explore.workers").Value(); got != 2 {
		t.Fatalf("workers gauge = %v, want 2", got)
	}
	if h := telemetry.Default.Histogram("explore.degree_seconds", nil); h.Count() != int64(len(sp.Degrees)) {
		t.Fatalf("degree_seconds count = %d, want %d", h.Count(), len(sp.Degrees))
	}
	var workerSpans, enumSpans int
	for _, s := range telemetry.DefaultTracer.Spans() {
		switch s.Name {
		case "explore.worker":
			workerSpans++
		case "explore.enumerate":
			enumSpans++
		}
	}
	if workerSpans != 2 || enumSpans != 1 {
		t.Fatalf("spans: worker=%d enumerate=%d, want 2/1", workerSpans, enumSpans)
	}

	// Feasible records how the space shrank.
	feas := Feasible(cands, math.Inf(1), math.Inf(1))
	if got := telemetry.Default.Counter("explore.feasible").Value(); got != int64(len(feas)) {
		t.Fatalf("feasible counter = %d, want %d", got, len(feas))
	}
	Feasible(cands, 0, math.Inf(1)) // everything misses the zero deadline
	if got := telemetry.Default.Counter("explore.pruned_deadline").Value(); got != int64(len(cands)) {
		t.Fatalf("pruned_deadline = %d, want %d", got, len(cands))
	}
}

func TestJointFrontier(t *testing.T) {
	h := harness(t)
	sp := Space{Pred: h, Degrees: someDegrees(), Pool: smallPool(t), W: 200_000}
	cands, err := sp.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	joint := JointFrontier(cands, Top1)
	if len(joint) == 0 {
		t.Fatal("empty joint frontier")
	}
	// No candidate dominates a joint-frontier member in all three axes.
	for _, p := range joint {
		for _, c := range cands {
			if c.Acc.Top1 >= p.Acc.Top1 && c.Seconds <= p.Seconds && c.Cost <= p.Cost &&
				(c.Acc.Top1 > p.Acc.Top1 || c.Seconds < p.Seconds || c.Cost < p.Cost) {
				t.Fatalf("candidate dominates joint-frontier member %+v", p)
			}
		}
	}
	// The joint frontier contains at least the union membership of both
	// 2-D frontiers' extreme points.
	tf := Frontier(cands, ByTime, Top1)
	cf := Frontier(cands, ByCost, Top1)
	if len(joint) < len(tf) || len(joint) < len(cf) {
		t.Fatalf("joint frontier (%d) smaller than a 2-D frontier (%d/%d)", len(joint), len(tf), len(cf))
	}
}
