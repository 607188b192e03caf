package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ccperf"
	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/explore"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/prune"
)

// planPairs scale the paper's Figure 9/10 deadline and budget. Pair 0 is
// the paper's request itself (cold call, Allocate, AllocateExhaustive);
// the seed picks one of the others for the warm Frontiers call. Feasible
// and frontier work grows with the feasible count, which the budget
// mostly sets; the others keep the paper's budget and move the deadline,
// so every seed's warm call filters a similar 1465–1621 of the 30,660
// candidates and the seed does not change how much work a run measures.
var planPairs = [][2]float64{
	{1, 1},
	{0.8, 1}, {0.9, 1}, {1.1, 1}, {1.25, 1},
	{1.5, 1}, {1.75, 1}, {2, 1}, {2.5, 1},
}

func pairRequest(i int) ccperf.Request {
	return ccperf.Request{
		Images:        ccperf.W1M,
		DeadlineHours: ccperf.Fig9DeadlineSeconds / 3600 * planPairs[i][0],
		BudgetUSD:     ccperf.Fig10BudgetUSD * planPairs[i][1],
	}
}

// planPoint, frontierResult and planOutcome are the planner's outputs in
// the form testdata/plan_golden.json records them.
type planPoint struct {
	Degree   string  `json:"degree"`
	Config   string  `json:"config"`
	Accuracy float64 `json:"accuracy"`
	Hours    float64 `json:"hours"`
	CostUSD  float64 `json:"cost_usd"`
}

type frontierResult struct {
	Feasible int         `json:"feasible"`
	Time     []planPoint `json:"time"`
	Cost     []planPoint `json:"cost"`
}

type planOutcome struct {
	Found   bool    `json:"found"`
	Degree  string  `json:"degree"`
	Config  string  `json:"config"`
	Top1    float64 `json:"top1"`
	Hours   float64 `json:"hours"`
	CostUSD float64 `json:"cost_usd"`
	Ops     int     `json:"ops"`
}

// planGolden holds the outputs every iteration must reproduce: one
// frontier pair per planPairs entry, and the paper request's allocations.
type planGolden struct {
	Pairs      []frontierResult `json:"pairs"`
	Alloc      planOutcome      `json:"alloc"`
	Exhaustive planOutcome      `json:"exhaustive"`
}

//go:embed testdata/plan_golden.json
var planGoldenJSON []byte

func loadGolden() (*planGolden, error) {
	var g planGolden
	if err := json.Unmarshal(planGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("plan golden: %w", err)
	}
	if len(g.Pairs) != len(planPairs) {
		return nil, fmt.Errorf("plan golden: %d pairs, want %d", len(g.Pairs), len(planPairs))
	}
	return &g, nil
}

func toPoints(fps []ccperf.FrontierPoint) []planPoint {
	out := make([]planPoint, len(fps))
	for i, f := range fps {
		out[i] = planPoint{f.Degree, f.Config, f.Accuracy, f.Hours, f.CostUSD}
	}
	return out
}

func toOutcome(p ccperf.Plan) planOutcome {
	return planOutcome{p.Found, p.Degree, p.Config, p.Top1, p.Hours, p.CostUSD, p.Ops}
}

// near reports whether two planner numbers agree to 1e-9 relative, so a
// reordering of floating-point work does not read as a wrong answer.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// A frontier is defined by its objective values; which of two candidates
// whose objective agrees to the last bits is picked is not. The gpusim
// model multiplies per-layer factors in map order, so such ties can break
// differently from one process to the next. The comparisons below
// therefore require the objective values to match and report a tie
// (through the tie callback) when only the chosen labels differ.

func comparePoints(kind string, got, want []planPoint, obj func(planPoint) float64, tie func(string)) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s frontier has %d points, want %d", kind, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !near(g.Accuracy, w.Accuracy) || !near(obj(g), obj(w)) {
			return fmt.Errorf("%s frontier point %d is %+v, want %+v", kind, i, g, w)
		}
		if !g.match(w) {
			tie(fmt.Sprintf("%s frontier point %d: %s on %s, golden %s on %s", kind, i, g.Degree, g.Config, w.Degree, w.Config))
		}
	}
	return nil
}

func (a planPoint) match(b planPoint) bool {
	return a.Degree == b.Degree && a.Config == b.Config &&
		near(a.Accuracy, b.Accuracy) && near(a.Hours, b.Hours) && near(a.CostUSD, b.CostUSD)
}

func (a frontierResult) diff(b frontierResult, tie func(string)) error {
	if a.Feasible != b.Feasible {
		return fmt.Errorf("feasible count %d, want %d", a.Feasible, b.Feasible)
	}
	if err := comparePoints("time", a.Time, b.Time, func(p planPoint) float64 { return p.Hours }, tie); err != nil {
		return err
	}
	return comparePoints("cost", a.Cost, b.Cost, func(p planPoint) float64 { return p.CostUSD }, tie)
}

// diff compares allocations: evaluation counts exactly, the chosen
// accuracy, cost and time to 1e-9, and the labels up to a tie.
func (a planOutcome) diff(b planOutcome, tie func(string)) error {
	if a.Found != b.Found || a.Ops != b.Ops || !near(a.Top1, b.Top1) || !near(a.CostUSD, b.CostUSD) || !near(a.Hours, b.Hours) {
		return fmt.Errorf("got %+v, want %+v", a, b)
	}
	if a.Degree != b.Degree || a.Config != b.Config {
		tie(fmt.Sprintf("allocation %s on %s, golden %s on %s", a.Degree, a.Config, b.Degree, b.Config))
	}
	return nil
}

// planRun is one iteration's outputs through the public Planner.
type planRun struct {
	cold, warm        frontierResult
	alloc, exhaustive planOutcome
	total             time.Duration
	end               time.Duration // since the loop started
	coldT, warmT      time.Duration
	allocT, exhaustT  time.Duration
}

// planIteration runs the five steps: a fresh planner, Frontiers on the
// paper request (cold cache), Frontiers on the seeded pair (warm cache),
// Allocate and AllocateExhaustive on the paper request.
func planIteration(ctx context.Context, warm int) (*planRun, error) {
	var r planRun
	frontiers := func(p *ccperf.Planner, i int) (frontierResult, error) {
		n, tf, cf, err := p.Frontiers(ctx, pairRequest(i))
		return frontierResult{Feasible: n, Time: toPoints(tf), Cost: toPoints(cf)}, err
	}
	t0 := time.Now()
	p, err := ccperf.NewPlanner(ccperf.Caffenet)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if r.cold, err = frontiers(p, 0); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if r.warm, err = frontiers(p, warm); err != nil {
		return nil, err
	}
	t3 := time.Now()
	a, err := p.Allocate(ctx, pairRequest(0))
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	e, err := p.AllocateExhaustive(ctx, pairRequest(0))
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	r.alloc, r.exhaustive = toOutcome(a), toOutcome(e)
	r.coldT, r.warmT, r.allocT, r.exhaustT, r.total = t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	return &r, nil
}

// check compares an iteration against the golden outputs.
func (r *planRun) check(g *planGolden, warm int, tie func(string)) error {
	if err := r.cold.diff(g.Pairs[0], tie); err != nil {
		return fmt.Errorf("cold Frontiers: %w", err)
	}
	if err := r.warm.diff(g.Pairs[warm], tie); err != nil {
		return fmt.Errorf("warm Frontiers (pair %d): %w", warm, err)
	}
	if err := r.alloc.diff(g.Alloc, tie); err != nil {
		return fmt.Errorf("Allocate: %w", err)
	}
	if err := r.exhaustive.diff(g.Exhaustive, tie); err != nil {
		return fmt.Errorf("AllocateExhaustive: %w", err)
	}
	return nil
}

// planLoop runs iterations back to back (one caller, closed loop) for
// the given time, checking each one.
func planLoop(ctx context.Context, g *planGolden, warm int, seconds float64, sink *report) ([]*planRun, time.Duration, error) {
	var runs []*planRun
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < limit {
		r, err := planIteration(ctx, warm)
		if err != nil {
			return nil, 0, err
		}
		sink.attempted++
		if err := r.check(g, warm, sink.tie); err != nil {
			sink.incorrect(err.Error())
		}
		r.end = time.Since(start)
		runs = append(runs, r)
	}
	return runs, time.Since(start), nil
}

// runPlan measures the planning workload. Traced, the run is split into
// fifths: untraced Planner iterations (the per-step medians and the
// reference outputs), then the search rebuilt from its parts
// (planTracer) run bare, instrumented, instrumented and bare again, so
// that a drift of the machine's speed cancels out of the tracing
// overhead.
func runPlan(seed int64, seconds float64, traced bool, sink *report) error {
	ctx := context.Background()
	g, err := loadGolden()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < planSetupReps; i++ {
		t0 := time.Now()
		for k := 0; k < planSetupGroup; k++ {
			if _, err := ccperf.NewPlanner(ccperf.Caffenet); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/planSetupGroup)
	}
	sink.set("setup_s", median(setups))
	warm := 1 + int(uint64(seed)%uint64(len(planPairs)-1))
	sink.info("warm_pair", fmt.Sprintf("deadline x%g, budget x%g of the paper request", planPairs[warm][0], planPairs[warm][1]))
	if !traced {
		runs, elapsed, err := planLoop(ctx, g, warm, seconds, sink)
		if err != nil {
			return err
		}
		planEndToEnd(runs, elapsed, sink)
		return nil
	}
	part := seconds / 5
	runs, elapsed, err := planLoop(ctx, g, warm, part, sink)
	if err != nil {
		return err
	}
	planEndToEnd(runs, elapsed, sink)
	pt, err := newPlanTracer(g, warm, runs[len(runs)-1], sink)
	if err != nil {
		return err
	}
	for _, on := range []bool{false, true, true, false} {
		if err := pt.run(ctx, part, on); err != nil {
			return err
		}
	}
	off, on := pt.iters[false], pt.iters[true]
	sink.overhead(percentile(off, 50), percentile(on, 50), percentile(off, 90), percentile(on, 90),
		float64(len(off))/pt.elapsed[false].Seconds(), float64(len(on))/pt.elapsed[true].Seconds())
	pt.report()
	sink.traceOut = pt.tr
	return nil
}

// setup_s is the median over planSetupReps groups of the mean time of
// planSetupGroup NewPlanner calls; one call takes a few microseconds, so
// a group spans enough clock ticks for its time to carry all its digits.
// planRateWindow is how many consecutive iterations a throughput sample
// spans.
const (
	planSetupReps  = 51
	planSetupGroup = 20
	planRateWindow = 16
)

// planEndToEnd reports the end-to-end numbers and per-step medians of
// untraced iterations run back to back for elapsed.
func planEndToEnd(runs []*planRun, elapsed time.Duration, sink *report) {
	medianOf := func(f func(*planRun) time.Duration) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, ms(f(r)))
		}
		return median(xs)
	}
	var tot []float64
	for _, r := range runs {
		tot = append(tot, ms(r.total))
	}
	sink.set("p50_ms", percentile(tot, 50))
	ends := make([]time.Duration, len(runs))
	for i, r := range runs {
		ends[i] = r.end
	}
	sink.info("peak_rps", fmt.Sprintf("%.6g iterations/s (not gated, see README.md)", median(windowRates(ends, planRateWindow))))
	sink.info("tail", fmt.Sprintf("p90 %.6g ms, p99 %.6g ms (not gated, see README.md)", percentile(tot, 90), percentile(tot, 99)))
	sink.set("plan.cold_ms", medianOf(func(r *planRun) time.Duration { return r.coldT }))
	sink.set("plan.warm_ms", medianOf(func(r *planRun) time.Duration { return r.warmT }))
	sink.set("plan.alloc_ms", medianOf(func(r *planRun) time.Duration { return r.allocT }))
	sink.set("plan.exhaustive_ms", medianOf(func(r *planRun) time.Duration { return r.exhaustT }))
	sink.info("iterations", fmt.Sprintf("%d in %.3f s", len(runs), elapsed.Seconds()))
}

// counting wraps a Predictor and counts every prediction asked of it,
// Perf batch times included; with timed set it also sums the time spent
// inside the wrapped predictor.
type counting struct {
	inner engine.Predictor
	timed bool
	calls atomic.Int64
	nanos atomic.Int64

	mu    sync.Mutex
	perfs []*countingPerf
}

func (c *counting) observe(t0 time.Time) {
	c.calls.Add(1)
	if c.timed {
		c.nanos.Add(int64(time.Since(t0)))
	}
}

func (c *counting) Accuracy(ctx context.Context, d prune.Degree) (accuracy.TopK, error) {
	defer c.observe(time.Now())
	return c.inner.Accuracy(ctx, d)
}

func (c *counting) BatchSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus, b int) (float64, error) {
	defer c.observe(time.Now())
	return c.inner.BatchSeconds(ctx, d, inst, gpus, b)
}

func (c *counting) TotalSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus int, w int64) (float64, error) {
	defer c.observe(time.Now())
	return c.inner.TotalSeconds(ctx, d, inst, gpus, w)
}

func (c *counting) Perf(d prune.Degree, gpus int) cloud.Perf {
	p := &countingPerf{inner: c.inner.Perf(d, gpus), timed: c.timed}
	c.mu.Lock()
	c.perfs = append(c.perfs, p)
	c.mu.Unlock()
	return p
}

// totals returns all predictions asked (direct ones and Perf batch
// times), the Perf batch times alone, and the time spent inside.
func (c *counting) totals() (calls, perfCalls int64, busy time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	busy = time.Duration(c.nanos.Load())
	for _, p := range c.perfs {
		perfCalls += p.calls.Load()
		busy += time.Duration(p.nanos.Load())
	}
	return c.calls.Load() + perfCalls, perfCalls, busy
}

type countingPerf struct {
	inner cloud.Perf
	timed bool
	calls atomic.Int64
	nanos atomic.Int64
}

func (p *countingPerf) BatchTime(it *cloud.Instance, b int) float64 {
	p.calls.Add(1)
	if !p.timed {
		return p.inner.BatchTime(it, b)
	}
	t0 := time.Now()
	v := p.inner.BatchTime(it, b)
	p.nanos.Add(int64(time.Since(t0)))
	return v
}

func (p *countingPerf) MaxBatch(it *cloud.Instance) int { return p.inner.MaxBatch(it) }

func candPoints(cs []explore.Candidate) []planPoint {
	out := make([]planPoint, len(cs))
	for i, c := range cs {
		out[i] = planPoint{c.Degree.Label(), c.Config.Label(), c.Acc.Top1, c.Hours(), c.Cost}
	}
	return out
}

// perfProbeCalls is how many warm Perf batch times are timed for
// cloud.perf_us; timing each call inside the search would swamp it.
const perfProbeCalls = 200000

// perfProbe times warm batch-time lookups through the engine cache, the
// call the enumeration makes once per instance of every configuration.
func perfProbe(pred engine.Predictor, d prune.Degree, pool []*cloud.Instance) float64 {
	perf := pred.Perf(d, 0)
	b := make([]int, len(pool))
	for i, it := range pool {
		b[i] = perf.MaxBatch(it)
		perf.BatchTime(it, b[i])
	}
	t0 := time.Now()
	for i := 0; i < perfProbeCalls; i++ {
		k := i % len(pool)
		perf.BatchTime(pool[k], b[k])
	}
	return us(time.Since(t0)) / perfProbeCalls
}

// planTracer rebuilds Planner's search from its public parts: the
// measurement harness, the engine cache and an explore.Space over the
// planner's 60 sampled variants and the 3×3 p2 pool. Instrumented, the
// harness sits under a counter of fills, the cache under a counter of
// calls, and each iteration times Enumerate (cold, then warm), Feasible,
// Frontier, Allocate and Exhaustive as spans under one root. Either way
// each iteration must reproduce what Planner returned (ref).
type planTracer struct {
	g    *planGolden
	warm int
	ref  *planRun
	tr   *trace
	sink *report

	iters                                map[bool][]float64 // iteration ms, by instrumented
	elapsed                              map[bool]time.Duration
	calls, fills, hit, fillMs, perfCalls []float64
	cands, allocOps, exhOps              int
	cache                                engine.Predictor
	degree                               prune.Degree
	pool                                 []*cloud.Instance
	origin                               time.Time
}

func newPlanTracer(g *planGolden, warm int, ref *planRun, sink *report) (*planTracer, error) {
	// The planner's default pool: three of each p2 type.
	var types []*cloud.Instance
	for _, n := range []string{"p2.xlarge", "p2.8xlarge", "p2.16xlarge"} {
		it, err := cloud.ByName(n)
		if err != nil {
			return nil, err
		}
		types = append(types, it)
	}
	return &planTracer{
		g: g, warm: warm, ref: ref, tr: &trace{}, sink: sink,
		iters: map[bool][]float64{}, elapsed: map[bool]time.Duration{},
		pool: cloud.BuildPool(types, 3), origin: time.Now(),
	}, nil
}

// run iterates for the given time, instrumented or bare.
func (pt *planTracer) run(ctx context.Context, seconds float64, instrumented bool) error {
	tr, sink := pt.tr, pt.sink
	since := func() time.Duration { return time.Since(pt.origin) }
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < limit {
		sink.attempted++
		t0 := since()
		root := int32(-1)
		if instrumented {
			root = tr.add("plan.iteration", -1, t0, 0)
		}
		step := func(name string, f func() error) error {
			if !instrumented {
				return f()
			}
			s := since()
			err := f()
			tr.add(name, root, s, since())
			return err
		}
		h, err := measure.NewHarness(ccperf.Caffenet)
		if err != nil {
			return err
		}
		var inner, outer *counting
		var pred engine.Predictor
		if instrumented {
			inner = &counting{inner: h, timed: true}
			pt.cache = engine.NewCache(inner)
			outer = &counting{inner: pt.cache}
			pred = outer
		} else {
			pred = engine.NewCache(h)
		}
		keep := func(d prune.Degree) bool {
			a, err := pred.Accuracy(ctx, d)
			return err == nil && a.Top1 >= 0.15
		}
		degrees := prune.SampleDegreesFiltered(models.CaffenetConvNames(), prune.Range(0, 0.9, 0.1), 60, 42, keep)
		pt.degree = degrees[0]
		sp := &explore.Space{Pred: pred, Degrees: degrees, Pool: pt.pool, W: ccperf.W1M, Dist: cloud.EvenSplit}

		var got [2]frontierResult
		for k, pair := range []int{0, pt.warm} {
			req := pairRequest(pair)
			suffix := []string{"", "_warm"}[k]
			var cs, fs, tf, cf []explore.Candidate
			if err := step("explore.enumerate"+suffix, func() (err error) { cs, err = sp.Enumerate(ctx); return }); err != nil {
				return err
			}
			_ = step("explore.feasible"+suffix, func() error {
				fs = explore.Feasible(cs, req.DeadlineHours*3600, req.BudgetUSD)
				return nil
			})
			_ = step("explore.frontier"+suffix, func() error {
				tf = explore.Frontier(fs, explore.ByTime, explore.Top1)
				cf = explore.Frontier(fs, explore.ByCost, explore.Top1)
				return nil
			})
			got[k] = frontierResult{Feasible: len(fs), Time: candPoints(tf), Cost: candPoints(cf)}
			pt.cands = len(cs)
		}
		in := explore.Input{
			Degrees: degrees, Pool: pt.pool, W: ccperf.W1M,
			Deadline: pairRequest(0).DeadlineHours * 3600, Budget: pairRequest(0).BudgetUSD,
			Metric: explore.Top1, Dist: cloud.EvenSplit,
		}
		var a, e explore.Result
		if err := step("explore.allocate", func() (err error) { a, err = explore.Allocate(ctx, pred, in); return }); err != nil {
			return err
		}
		if err := step("explore.exhaustive", func() (err error) { e, err = explore.Exhaustive(ctx, pred, in); return }); err != nil {
			return err
		}
		t1 := since()
		pt.iters[instrumented] = append(pt.iters[instrumented], ms(t1-t0))
		pt.allocOps, pt.exhOps = a.Ops, e.Ops

		for k, want := range []frontierResult{pt.ref.cold, pt.ref.warm} {
			if err := got[k].diff(want, sink.tie); err != nil {
				sink.incorrect(fmt.Sprintf("rebuilt search differs from Planner.Frontiers: %v", err))
			}
		}
		if a.Ops != pt.g.Alloc.Ops || e.Ops != pt.g.Exhaustive.Ops {
			sink.incorrect(fmt.Sprintf("rebuilt search made %d/%d evaluations, want %d/%d", a.Ops, e.Ops, pt.g.Alloc.Ops, pt.g.Exhaustive.Ops))
		}
		if !instrumented {
			continue
		}
		tr.spans[root].End = t1
		c, pc, _ := outer.totals()
		f, _, busy := inner.totals()
		pt.calls = append(pt.calls, float64(c))
		pt.fills = append(pt.fills, float64(f))
		pt.perfCalls = append(pt.perfCalls, float64(pc))
		pt.hit = append(pt.hit, 1-float64(f)/float64(c))
		pt.fillMs = append(pt.fillMs, ms(busy))
	}
	pt.elapsed[instrumented] += time.Since(start)
	return nil
}

// report sets the explore, engine and cloud metrics (medians per
// instrumented iteration).
func (pt *planTracer) report() {
	sink := pt.sink
	for _, name := range []string{"explore.enumerate", "explore.enumerate_warm", "explore.feasible", "explore.frontier"} {
		sink.set(name+"_ms", median(pt.tr.durationsMs(-1, name)))
	}
	sink.set("explore.candidates", float64(pt.cands))
	sink.set("explore.alloc_evals", float64(pt.allocOps))
	sink.set("explore.exhaustive_evals", float64(pt.exhOps))
	sink.set("engine.calls", median(pt.calls))
	sink.set("engine.fills", median(pt.fills))
	sink.set("engine.hit_ratio", median(pt.hit))
	sink.set("engine.fill_ms", median(pt.fillMs))
	sink.set("cloud.perf_calls", median(pt.perfCalls))
	sink.set("cloud.perf_us", perfProbe(pt.cache, pt.degree, pt.pool))
}
