// Package ccperf reproduces "Characterizing the Cost-Accuracy Performance
// of Cloud Applications" (Rathnayake, Ramapantulu, Teo — ICPP Workshops
// 2020) as a Go library.
//
// The library models CNN inference on cloud GPU instances whose accuracy is
// tuned by pruning, and answers the paper's central question: given a time
// deadline and a cost budget, which degree of pruning and which cloud
// resource configuration should a consumer pick?
//
// Three layers of API:
//
//   - System: measurement-driven characterization of one CNN (layer time
//     distribution, pruning sweeps, sweet-spots, TAR/CAR records).
//   - Planner: joint (pruning × cloud-configuration) space exploration —
//     feasible sets, Pareto frontiers, and Algorithm 1's greedy allocation.
//   - RunExperiment: regenerates every table and figure of the paper
//     (see experiments.go), used by cmd/paperbench and the benchmarks.
//
// The substrate is simulated: internal/gpusim is calibrated against the
// paper's published measurements, and internal/accuracy provides both
// calibrated curves and an empirically trained-and-pruned CNN. See
// DESIGN.md for the substitution inventory.
package ccperf

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/explore"
	"ccperf/internal/measure"
	"ccperf/internal/metrics"
	"ccperf/internal/models"
	"ccperf/internal/prune"
)

// Model names accepted by NewSystem and NewPlanner.
const (
	Caffenet  = models.CaffenetName
	Googlenet = models.GooglenetName
)

// System characterizes one CNN on the cloud: the Section 3 measurement
// pipeline behind Figures 3–8, 11 and 12.
type System struct {
	Model   string
	harness *measure.Harness
	engine  *engine.Cache
}

// NewSystem builds a measurement system for a paper model ("caffenet" or
// "googlenet").
func NewSystem(model string) (*System, error) {
	h, err := measure.NewHarness(model)
	if err != nil {
		return nil, err
	}
	return &System{Model: model, harness: h, engine: engine.NewCache(h)}, nil
}

// SweepPoint is one row of a layer sweep: the prune ratio, the measured
// total time for the workload, and the predicted accuracy there.
type SweepPoint struct {
	Ratio   float64
	Minutes float64
	Top1    float64
	Top5    float64
}

// LayerSweep prunes a single layer at each ratio and measures total time
// and accuracy for w images on the named instance type — one sub-figure of
// Figures 6/7. Nil ratios mean the paper's 0–90% range at 10% steps.
func (s *System) LayerSweep(ctx context.Context, layer string, ratios []float64, instance string, w int64) ([]SweepPoint, error) {
	inst, err := cloud.ByName(instance)
	if err != nil {
		return nil, err
	}
	if len(ratios) == 0 {
		ratios = prune.Range(0, 0.9, 0.1)
	}
	pts, err := s.harness.LayerSweep(ctx, layer, ratios, inst, w)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(pts))
	for i, p := range pts {
		out[i] = SweepPoint{Ratio: p.Ratio, Minutes: p.Minutes, Top1: p.Top1, Top5: p.Top5}
	}
	return out, nil
}

// Predictor exposes the system's shared memoizing prediction engine. Every
// planner, simulator or serving layer built on this system should consume
// predictions through it, so repeated (degree, instance-type) evaluations
// are made once per process.
func (s *System) Predictor() engine.Predictor { return s.engine }

// Baseline returns the unpruned Top-1/Top-5 accuracy.
func (s *System) Baseline() (top1, top5 float64) {
	b := s.harness.Eval.Baseline()
	return b.Top1, b.Top5
}

// Measure runs the full measurement of one degree of pruning on one
// instance type for w images: inference time, pro-rated cost, accuracy,
// TAR and CAR (Section 3.3's output list).
func (s *System) Measure(ctx context.Context, d prune.Degree, instance string, w int64) (metrics.Record, error) {
	inst, err := cloud.ByName(instance)
	if err != nil {
		return metrics.Record{}, err
	}
	return s.harness.Record(ctx, d, inst, 0, w)
}

// SweetSpot describes a layer's sweet-spot region (Observation 1): the
// largest prune ratio with no accuracy loss, and the time saved there.
type SweetSpot struct {
	Layer        string
	MaxRatio     float64 // last ratio with unchanged accuracy
	TimeSavedPct float64 // total-time reduction at MaxRatio, in percent
}

// SweetSpots sweeps each layer at 10% steps on p2.xlarge and reports the
// sweet-spot end per layer.
func (s *System) SweetSpots(ctx context.Context, layers []string, w int64) ([]SweetSpot, error) {
	inst, err := cloud.ByName("p2.xlarge")
	if err != nil {
		return nil, err
	}
	var out []SweetSpot
	for _, layer := range layers {
		pts, err := s.harness.LayerSweep(ctx, layer, prune.Range(0, 0.9, 0.1), inst, w)
		if err != nil {
			return nil, err
		}
		base := pts[0]
		ss := SweetSpot{Layer: layer}
		for _, p := range pts {
			if p.Top1 == base.Top1 && p.Top5 == base.Top5 {
				ss.MaxRatio = p.Ratio
				ss.TimeSavedPct = (base.Minutes - p.Minutes) / base.Minutes * 100
			} else {
				break
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Request describes a planning problem: infer Images within DeadlineHours
// and BudgetUSD, choosing among pruned variants and subsets of a resource
// pool.
type Request struct {
	Images        int64
	DeadlineHours float64 // 0 = unbounded
	BudgetUSD     float64 // 0 = unbounded
	// PoolTypes are instance type names; PerType replicates each
	// (default: the three p2 types × 3, the paper's Figure 9/10 pool).
	PoolTypes []string
	PerType   int
	// Variants is the number of pruned model versions to consider
	// (default 60, the paper's Figure 9/10 set). Seed fixes the sample.
	Variants int
	Seed     int64
	// UseTop5 selects the accuracy metric (default Top-1).
	UseTop5 bool
	// CapacityWeighted distributes the workload proportionally to each
	// instance's throughput instead of the paper's even split
	// (Equation 4) — see internal/cloud.Distribution.
	CapacityWeighted bool
	// Workers bounds the enumeration worker pool used by Frontiers
	// (default: runtime.NumCPU()). Telemetry reports pool utilization at
	// the chosen size under explore.worker_utilization.
	Workers int
}

func (r *Request) defaults() {
	if len(r.PoolTypes) == 0 {
		r.PoolTypes = []string{"p2.xlarge", "p2.8xlarge", "p2.16xlarge"}
	}
	if r.PerType == 0 {
		r.PerType = 3
	}
	if r.Variants == 0 {
		r.Variants = 60
	}
	if r.Seed == 0 {
		r.Seed = 42
	}
}

// Plan is a planning outcome.
type Plan struct {
	Found   bool
	Degree  string  // degree-of-pruning label
	Top1    float64 // fraction
	Top5    float64
	Config  string // resource configuration label
	Hours   float64
	CostUSD float64
	Ops     int // analytical-model evaluations spent searching
}

// Planner explores the joint configuration space for one model. It is
// safe for concurrent use. The pruned-variant sample depends only on the
// request's Variants and Seed, so a planner draws it once per pair and
// reuses it for every later request.
type Planner struct {
	sys *System

	mu      sync.Mutex
	samples map[sampleKey][]prune.Degree
}

// sampleKey is what a variant sample depends on.
type sampleKey struct {
	variants int
	seed     int64
}

// NewPlanner builds a planner for a paper model.
func NewPlanner(model string) (*Planner, error) {
	sys, err := NewSystem(model)
	if err != nil {
		return nil, err
	}
	return &Planner{sys: sys}, nil
}

// System returns the underlying measurement system.
func (p *Planner) System() *System { return p.sys }

func (p *Planner) space(r *Request) (*explore.Space, explore.Input, error) {
	r.defaults()
	var pool []*cloud.Instance
	for _, name := range r.PoolTypes {
		inst, err := cloud.ByName(name)
		if err != nil {
			return nil, explore.Input{}, err
		}
		pool = append(pool, instReplicas(inst, r.PerType)...)
	}
	degrees := p.degrees(r)
	deadline, budget := math.Inf(1), math.Inf(1)
	if r.DeadlineHours > 0 {
		deadline = r.DeadlineHours * 3600
	}
	if r.BudgetUSD > 0 {
		budget = r.BudgetUSD
	}
	metric := explore.Top1
	if r.UseTop5 {
		metric = explore.Top5
	}
	dist := cloud.EvenSplit
	if r.CapacityWeighted {
		dist = cloud.CapacityWeighted
	}
	sp := &explore.Space{Pred: p.sys.engine, Degrees: degrees, Pool: pool, W: r.Images, Dist: dist, Workers: r.Workers}
	in := explore.Input{
		Degrees: degrees, Pool: pool, W: r.Images,
		Deadline: deadline, Budget: budget, Metric: metric, Dist: dist,
	}
	return sp, in, nil
}

func instReplicas(i *cloud.Instance, n int) []*cloud.Instance {
	out := make([]*cloud.Instance, n)
	for k := range out {
		out[k] = i
	}
	return out
}

// degrees returns the pruned-variant set, drawn on the first request for
// its (Variants, Seed) and shared read-only afterwards: live variants only
// (Top-1 ≥ 15%), matching the paper's 60-version Caffenet space. The
// sample runs outside the lock, so a cold seed does not stall requests
// for memoised ones; a sample is deterministic for its key, so when two
// requests race to fill one key the first stored copy wins and the other
// is dropped.
func (p *Planner) degrees(r *Request) []prune.Degree {
	k := sampleKey{r.Variants, r.Seed}
	p.mu.Lock()
	ds, ok := p.samples[k]
	p.mu.Unlock()
	if ok {
		return ds
	}
	ds = p.sample(r)
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.samples[k]; ok {
		return prev
	}
	if p.samples == nil {
		p.samples = map[sampleKey][]prune.Degree{}
	}
	p.samples[k] = ds
	return ds
}

func (p *Planner) sample(r *Request) []prune.Degree {
	var layers []string
	if p.sys.Model == Caffenet {
		layers = models.CaffenetConvNames()
	} else {
		layers = models.GooglenetSelectedConvNames()
	}
	keep := func(d prune.Degree) bool {
		a, err := p.sys.engine.Accuracy(context.Background(), d)
		return err == nil && a.Top1 >= 0.15
	}
	return prune.SampleDegreesFiltered(layers, prune.Range(0, 0.9, 0.1), r.Variants, r.Seed, keep)
}

// Allocate runs Algorithm 1: greedy TAR/CAR-guided allocation.
func (p *Planner) Allocate(ctx context.Context, r Request) (Plan, error) {
	_, in, err := p.space(&r)
	if err != nil {
		return Plan{}, err
	}
	res, err := explore.Allocate(ctx, p.sys.engine, in)
	if err != nil {
		return Plan{}, err
	}
	return toPlan(res), nil
}

// AllocateExhaustive runs the exponential brute-force baseline.
func (p *Planner) AllocateExhaustive(ctx context.Context, r Request) (Plan, error) {
	_, in, err := p.space(&r)
	if err != nil {
		return Plan{}, err
	}
	res, err := explore.Exhaustive(ctx, p.sys.engine, in)
	if err != nil {
		return Plan{}, err
	}
	return toPlan(res), nil
}

func toPlan(res explore.Result) Plan {
	return Plan{
		Found:  res.Found,
		Degree: res.Degree.Label(),
		Top1:   res.Acc.Top1, Top5: res.Acc.Top5,
		Config: res.Config.Label(),
		Hours:  res.Seconds / 3600, CostUSD: res.Cost,
		Ops: res.Ops,
	}
}

// FrontierPoint is one Pareto-optimal configuration.
type FrontierPoint struct {
	Degree   string
	Config   string
	Accuracy float64 // in the requested metric
	Hours    float64
	CostUSD  float64
}

// Frontiers enumerates the joint space under the request's constraints and
// returns (feasible count, time-accuracy frontier, cost-accuracy frontier)
// — the machinery of Figures 9 and 10.
func (p *Planner) Frontiers(ctx context.Context, r Request) (int, []FrontierPoint, []FrontierPoint, error) {
	sp, in, err := p.space(&r)
	if err != nil {
		return 0, nil, nil, err
	}
	cands, err := sp.Enumerate(ctx)
	if err != nil {
		return 0, nil, nil, err
	}
	feas := explore.Feasible(cands, in.Deadline, in.Budget)
	tf := explore.Frontier(feas, explore.ByTime, in.Metric)
	cf := explore.Frontier(feas, explore.ByCost, in.Metric)
	conv := func(cs []explore.Candidate) []FrontierPoint {
		out := make([]FrontierPoint, len(cs))
		for i, c := range cs {
			acc := c.Acc.Top1
			if r.UseTop5 {
				acc = c.Acc.Top5
			}
			out[i] = FrontierPoint{
				Degree: c.Degree.Label(), Config: c.Config.Label(),
				Accuracy: acc, Hours: c.Hours(), CostUSD: c.Cost,
			}
		}
		return out
	}
	return len(feas), conv(tf), conv(cf), nil
}

// EmpiricalEvaluator returns the trained-and-really-pruned accuracy
// evaluator (synthetic data, real SGD training, real L1-filter pruning) —
// the ground-truth companion to the calibrated curves.
func EmpiricalEvaluator() *accuracy.Empirical {
	return accuracy.NewEmpirical(accuracy.DefaultEmpiricalConfig())
}

// Validate sanity-checks a request.
func (r Request) Validate() error {
	if r.Images <= 0 {
		return fmt.Errorf("ccperf: request needs Images > 0")
	}
	if r.DeadlineHours < 0 || r.BudgetUSD < 0 {
		return fmt.Errorf("ccperf: negative constraints")
	}
	return nil
}
