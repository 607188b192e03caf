package explore

import (
	"context"
	"fmt"
	"math"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/pareto"
	"ccperf/internal/prune"
	"ccperf/internal/telemetry"
)

// TenantDemand is one tenant's offline demand in a multi-tenant packing
// search: its own pruning ladder, workload size, and completion deadline.
// It is the batch counterpart of tenant.Spec — the explore layer answers
// "which tenants should share a pool, at which rungs" before any fleet
// is provisioned.
type TenantDemand struct {
	Name string
	// Degrees is the tenant's ladder (least pruned first); the search may
	// place the tenant at any rung.
	Degrees []prune.Degree
	// W is the tenant's image count.
	W int64
	// Deadline is the tenant's completion deadline in seconds (0 = none).
	// Tenants time-multiplex the shared pool, so a tenant is on time only
	// when the whole packing's makespan beats its deadline.
	Deadline float64
}

// TenantAssignment is one tenant's slice of a packing: the rung it runs
// at, its attributed time and cost, and the per-tenant headline —
// $/million-on-time-requests.
type TenantAssignment struct {
	Tenant  string
	Degree  prune.Degree
	Acc     accuracy.TopK
	Seconds float64
	Cost    float64
	// OnTime is the tenant's request count when the packing's makespan
	// meets its deadline, 0 otherwise; DollarsPerMillionOnTime =
	// Cost/OnTime × 1e6 (infinite — left 0 — when nothing is on time).
	OnTime                  int64
	DollarsPerMillionOnTime float64
}

// Packing is one joint configuration: a shared resource pool hosting
// every tenant, time-multiplexed, each at a chosen rung.
type Packing struct {
	Config      cloud.Config
	Assignments []TenantAssignment
	// Seconds is the makespan: tenants time-multiplex the pool, so slices
	// add. Cost is the joint bill (the sum of attributed slices).
	Seconds float64
	Cost    float64
	// MeanAccuracy is the W-weighted mean of the chosen rungs' accuracy
	// (by the metric the enumeration ran with).
	MeanAccuracy float64
}

// OnTime reports whether every tenant with a deadline meets it. A tenant
// without a deadline always counts as on time (its OnTime is its full W).
func (p Packing) OnTime() bool {
	for _, a := range p.Assignments {
		if a.OnTime == 0 {
			return false
		}
	}
	return true
}

// maxPackingEvals bounds |subsets(G)| × Π|ladder_i| so a careless call
// cannot explode; the limit is explicit, never a silent truncation.
const maxPackingEvals = 1 << 20

// EnumeratePackings evaluates every multi-tenant packing: each non-empty
// subset of the pool × each combination of per-tenant ladder rungs. The
// output order is deterministic: subset-major (cloud.Subsets order), rung
// combinations in mixed-radix order with the first tenant most
// significant. The search errors out — rather than silently sampling —
// when the space exceeds 2^20 packings.
func EnumeratePackings(ctx context.Context, pred engine.Predictor, tenants []TenantDemand, pool []*cloud.Instance, m Metric, dist cloud.Distribution) ([]Packing, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("explore: no tenant demands")
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("explore: empty resource pool")
	}
	_, finish := telemetry.StartSpan(ctx, "explore.enumerate_packings")
	reg := telemetry.Default
	enumerated := reg.Counter("explore.packings_enumerated")

	configs := cloud.Subsets(pool)
	combos := 1
	for _, t := range tenants {
		if len(t.Degrees) == 0 {
			return nil, fmt.Errorf("explore: tenant %s has an empty ladder", t.Name)
		}
		if t.W <= 0 {
			return nil, fmt.Errorf("explore: tenant %s has no workload", t.Name)
		}
		combos *= len(t.Degrees)
		if combos*len(configs) > maxPackingEvals {
			return nil, fmt.Errorf("explore: packing space %d×%d exceeds %d evaluations; shrink pools or ladders",
				len(configs), combos, maxPackingEvals)
		}
	}

	// Resolve each (tenant, rung) once: accuracy and perf predictions are
	// shared across every subset that reuses them.
	type rungEval struct {
		acc  accuracy.TopK
		a    float64
		perf cloud.Perf
	}
	evals := make([][]rungEval, len(tenants))
	for ti, t := range tenants {
		evals[ti] = make([]rungEval, len(t.Degrees))
		for ri, d := range t.Degrees {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			acc, err := pred.Accuracy(ctx, d)
			if err != nil {
				return nil, err
			}
			evals[ti][ri] = rungEval{acc: acc, a: m.Pick(acc), perf: cloud.Tabulate(pred.Perf(d, 0), pool)}
		}
	}

	var totalW int64
	for _, t := range tenants {
		totalW += t.W
	}

	out := make([]Packing, 0, len(configs)*combos)
	rungs := make([]int, len(tenants))
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range rungs {
			rungs[i] = 0
		}
		for {
			p := Packing{Config: cfg, Assignments: make([]TenantAssignment, len(tenants))}
			var accW float64
			for ti, t := range tenants {
				ev := evals[ti][rungs[ti]]
				est, err := cloud.EstimateRunWith(cfg, t.W, ev.perf, dist)
				if err != nil {
					return nil, err
				}
				p.Assignments[ti] = TenantAssignment{
					Tenant:  t.Name,
					Degree:  t.Degrees[rungs[ti]],
					Acc:     ev.acc,
					Seconds: est.Seconds,
					Cost:    est.Cost,
				}
				p.Seconds += est.Seconds
				p.Cost += est.Cost
				accW += ev.a * float64(t.W)
			}
			p.MeanAccuracy = accW / float64(totalW)
			for ti, t := range tenants {
				a := &p.Assignments[ti]
				if t.Deadline <= 0 || p.Seconds <= t.Deadline {
					a.OnTime = t.W
					if a.OnTime > 0 {
						a.DollarsPerMillionOnTime = a.Cost / float64(a.OnTime) * 1e6
					}
				}
			}
			out = append(out, p)
			enumerated.Inc()

			// Mixed-radix increment, least-significant (last) tenant first.
			i := len(rungs) - 1
			for ; i >= 0; i-- {
				rungs[i]++
				if rungs[i] < len(tenants[i].Degrees) {
					break
				}
				rungs[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	finish(
		telemetry.L("tenants", len(tenants)),
		telemetry.L("configs", len(configs)),
		telemetry.L("packings", len(out)),
	)
	return out, nil
}

// FeasiblePackings keeps the packings where every tenant meets its
// deadline. Counters mirror Feasible: explore.packings_feasible and
// explore.packings_pruned_deadline.
func FeasiblePackings(packings []Packing) []Packing {
	reg := telemetry.Default
	feasible := reg.Counter("explore.packings_feasible")
	pruned := reg.Counter("explore.packings_pruned_deadline")
	var out []Packing
	for _, p := range packings {
		if p.OnTime() {
			feasible.Inc()
			out = append(out, p)
		} else {
			pruned.Inc()
		}
	}
	return out
}

// PackingFrontier extracts the joint cost-accuracy Pareto set over
// packings: maximal W-weighted mean accuracy at minimal joint cost — the
// multi-tenant generalization of the paper's Figure 10 frontier.
func PackingFrontier(packings []Packing) []Packing {
	pts := make([]pareto.Point, len(packings))
	for i, p := range packings {
		pts[i] = pareto.Point{Accuracy: p.MeanAccuracy, Objective: p.Cost, Payload: i}
	}
	fr := pareto.Frontier(pts)
	out := make([]Packing, len(fr))
	for i, p := range fr {
		out[i] = packings[p.Payload.(int)]
	}
	return out
}

// DedicatedBaseline provisions each tenant its own pool (no sharing):
// per tenant, the exhaustive search picks the highest-accuracy rung and
// subset meeting its deadline alone. It returns one Result per tenant (in
// input order) and the summed cost — the bill a packing must beat for
// co-location to pay. A tenant with no feasible dedicated configuration
// has Found=false and contributes nothing to the total.
func DedicatedBaseline(ctx context.Context, pred engine.Predictor, tenants []TenantDemand, pool []*cloud.Instance, m Metric, dist cloud.Distribution) ([]Result, float64, error) {
	results := make([]Result, len(tenants))
	total := 0.0
	for i, t := range tenants {
		deadline := t.Deadline
		if deadline <= 0 {
			deadline = math.Inf(1)
		}
		res, err := Exhaustive(ctx, pred, Input{
			Degrees:  t.Degrees,
			Pool:     pool,
			W:        t.W,
			Deadline: deadline,
			Budget:   math.Inf(1),
			Metric:   m,
			Dist:     dist,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("explore: dedicated baseline for tenant %s: %w", t.Name, err)
		}
		results[i] = res
		if res.Found {
			total += res.Cost
		}
	}
	return results, total, nil
}
