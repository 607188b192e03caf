package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"ccperf"
	"ccperf/internal/autoscale"
	"ccperf/internal/cloud"
	"ccperf/internal/explore"
	"ccperf/internal/fault"
	"ccperf/internal/report"
	"ccperf/internal/serving"
	"ccperf/internal/tenant"
)

// tenantLoadtestOpts carries the loadtest flag values that apply to the
// multi-tenant path (-tenants <spec.json>).
type tenantLoadtestOpts struct {
	specPath     string
	duration     time.Duration
	seed         int64
	cooldown     time.Duration
	replicas     int
	maxBatch     int
	batchTimeout time.Duration
	instance     string
	faults       *fault.Schedule
	autoscale    bool
	budget       float64
	minReplicas  int
	maxReplicas  int
	interval     time.Duration
	warmup       time.Duration
	maxP99       time.Duration
	maxErrorRate float64
	reportOut    string
	metricsOut   string
	traceOut     string
}

// tenantLoadtest replays every tenant's own Poisson arrival process against
// one shared multi-tenant fleet and reports per-tenant latency, accuracy,
// quota rejections, and — with -autoscale, through the same reportFleet
// as the single-tenant path — the joint bill (per-tenant rung, attributed
// cost, $/million-on-time, who degraded first).
func tenantLoadtest(o tenantLoadtestOpts) error {
	specs, err := tenant.LoadSpecs(o.specPath)
	if err != nil {
		return fmt.Errorf("loadtest: -tenants: %w", err)
	}
	reg, err := tenant.NewRegistry(specs)
	if err != nil {
		return fmt.Errorf("loadtest: -tenants: %w", err)
	}
	opts := []ccperf.Option{
		ccperf.WithTenants(specs),
		ccperf.WithReplicas(o.replicas),
		ccperf.WithMaxBatch(o.maxBatch),
		ccperf.WithBatchTimeout(o.batchTimeout),
		ccperf.WithInstance(o.instance),
	}
	if o.faults != nil && len(o.faults.Events) > 0 {
		opts = append(opts, ccperf.WithInjector(o.faults))
	}
	if o.autoscale {
		opts = append(opts,
			ccperf.WithAutoscale(o.budget, o.minReplicas, o.maxReplicas),
			ccperf.WithAutoscaleInterval(o.interval),
			ccperf.WithWarmup(o.warmup))
	}
	st, err := ccperf.Open(ccperf.Caffenet, opts...)
	if err != nil {
		return err
	}
	g := st.Gateway()
	st.Start()
	rep, runErr := tenant.RunLoad(g, reg, tenant.LoadConfig{
		Duration: o.duration,
		Seed:     o.seed,
		Cooldown: o.cooldown,
	})
	st.Close()
	if runErr != nil {
		return runErr
	}

	cfg := g.Config()
	fmt.Printf("fleet    : %d tenants sharing %d replicas × batch ≤%d (%s pricing each), %s replay\n",
		reg.Len(), cfg.Replicas, cfg.MaxBatch, st.Instance().Name, o.duration)
	if o.faults != nil && len(o.faults.Events) > 0 {
		fmt.Printf("chaos    : %s\n", o.faults.String())
	}
	fmt.Print(rep.String())
	asStatus := reportFleet(st)

	if o.reportOut != "" {
		payload := struct {
			TenantReport *tenant.Report        `json:"tenant_report"`
			Fleet        []serving.TenantStats `json:"tenants"`
			Autoscale    *autoscale.Status     `json:"autoscale,omitempty"`
		}{rep, g.AllTenantStats(), asStatus}
		if err := report.WriteEnvelopeFile(o.reportOut, report.KindLoadtest, payload); err != nil {
			return fmt.Errorf("report-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loadtest: report → %s\n", o.reportOut)
	}
	if err := writeTelemetry(o.metricsOut, o.traceOut); err != nil {
		return err
	}

	// Exit gates mirror the single-tenant loadtest, but both latency and
	// error rate gate on the fleet's weakest tenant — a mean would let a
	// noisy neighbor hide a starved one.
	if rate := rep.ErrorRate(); rate > o.maxErrorRate {
		return fmt.Errorf("loadtest: worst tenant error rate %.2f%% exceeds -max-error-rate %.2f%%",
			rate*100, o.maxErrorRate*100)
	}
	if o.maxP99 > 0 {
		limit := o.maxP99.Seconds() * 1000
		for i := range rep.Tenants {
			if t := &rep.Tenants[i]; t.P99MS > limit {
				return fmt.Errorf("loadtest: tenant %s p99 %.1fms exceeds -max-p99 %s", t.Name, t.P99MS, o.maxP99)
			}
		}
	}
	return budgetGate(asStatus, o.budget, rep.WallSeconds)
}

// packCmd enumerates multi-tenant packings offline: which tenants should
// share a pool, at which ladder rungs, reporting per-tenant
// $/million-on-time alongside the joint cost-accuracy frontier, and the
// dedicated (one pool per tenant) baseline co-location must beat.
func packCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("pack", "enumerate multi-tenant packings: shared pool + per-tenant rungs, joint frontier, dedicated baseline")
	model := modelFlag(fs)
	tenantsSpec := fs.String("tenants", "", "tenant spec file (required; per tenant: ladder, images, pack_deadline_hours)")
	poolSpec := fs.String("pool", "2xp2.xlarge+1xp2.8xlarge", "candidate instance pool, e.g. \"2xp2.xlarge+1xg3.4xlarge\"")
	images := fs.Int64("images", 100_000, "per-tenant workload when a spec omits images")
	metricsOut, traceOut := telemetryFlags(fs)
	fs.Parse(args)
	if *tenantsSpec == "" {
		return fmt.Errorf("pack: -tenants is required")
	}
	specs, err := tenant.LoadSpecs(*tenantsSpec)
	if err != nil {
		return fmt.Errorf("pack: -tenants: %w", err)
	}
	reg, err := tenant.NewRegistry(specs)
	if err != nil {
		return err
	}
	pool, err := cloud.ParseConfig(*poolSpec)
	if err != nil {
		return fmt.Errorf("pack: -pool: %w", err)
	}
	sys, err := ccperf.NewSystem(*model)
	if err != nil {
		return err
	}

	demands := make([]explore.TenantDemand, 0, reg.Len())
	for _, s := range reg.Specs() {
		degrees, err := ccperf.LadderDegrees(s.Ladder)
		if err != nil {
			return fmt.Errorf("pack: tenant %s: %w", s.Name, err)
		}
		w := s.Images
		if w <= 0 {
			w = *images
		}
		demands = append(demands, explore.TenantDemand{
			Name:     s.Name,
			Degrees:  degrees,
			W:        w,
			Deadline: s.PackDeadlineHours * 3600,
		})
	}

	packs, err := explore.EnumeratePackings(ctx, sys.Predictor(), demands, pool.Instances, explore.Top1, 0)
	if err != nil {
		return err
	}
	feas := explore.FeasiblePackings(packs)
	fmt.Printf("%d packings (%d tenants × pool subsets of %s), %d feasible (every deadline met)\n\n",
		len(packs), reg.Len(), pool.Label(), len(feas))

	frontierOver := feas
	if len(frontierOver) == 0 {
		fmt.Println("no packing meets every deadline; frontier below spans the infeasible space")
		frontierOver = packs
	}
	front := explore.PackingFrontier(frontierOver)
	tb := report.NewTable("joint cost-accuracy frontier over packings",
		"Mean Top-1 (%)", "Makespan (h)", "Cost ($)", "Pool", "Per-tenant $/M on-time")
	for _, p := range front {
		perTenant := make([]string, 0, len(p.Assignments))
		for _, a := range p.Assignments {
			if a.OnTime > 0 {
				perTenant = append(perTenant, fmt.Sprintf("%s:$%.2f", a.Tenant, a.DollarsPerMillionOnTime))
			} else {
				perTenant = append(perTenant, a.Tenant+":late")
			}
		}
		tb.Row(fmt.Sprintf("%.0f", p.MeanAccuracy*100),
			fmt.Sprintf("%.3f", p.Seconds/3600),
			fmt.Sprintf("%.2f", p.Cost),
			p.Config.Label(),
			strings.Join(perTenant, " "))
	}
	fmt.Println(tb.String())

	if len(feas) > 0 {
		best := feas[0]
		for _, p := range feas[1:] {
			if p.Cost < best.Cost {
				best = p
			}
		}
		bt := report.NewTable(fmt.Sprintf("cheapest feasible packing: %s ($%.2f, %.3f h makespan)",
			best.Config.Label(), best.Cost, best.Seconds/3600),
			"Tenant", "Rung", "Top-1 (%)", "Slice (h)", "Cost ($)", "$ / M on-time")
		for _, a := range best.Assignments {
			bt.Row(a.Tenant, a.Degree.Label(), fmt.Sprintf("%.0f", a.Acc.Top1*100),
				fmt.Sprintf("%.3f", a.Seconds/3600), fmt.Sprintf("%.2f", a.Cost),
				fmt.Sprintf("%.2f", a.DollarsPerMillionOnTime))
		}
		fmt.Println(bt.String())

		dedicated, total, err := explore.DedicatedBaseline(ctx, sys.Predictor(), demands, pool.Instances, explore.Top1, 0)
		if err != nil {
			return err
		}
		dt := report.NewTable("dedicated baseline (one pool per tenant, no sharing)",
			"Tenant", "Rung", "Top-1 (%)", "Hours", "Cost ($)")
		for i, r := range dedicated {
			if !r.Found {
				dt.Row(demands[i].Name, "—", "—", "—", "infeasible alone")
				continue
			}
			dt.Row(demands[i].Name, r.Degree.Label(), fmt.Sprintf("%.0f", r.Acc.Top1*100),
				fmt.Sprintf("%.3f", r.Seconds/3600), fmt.Sprintf("%.2f", r.Cost))
		}
		fmt.Println(dt.String())
		// The fair co-location claim holds accuracy constant: the cheapest
		// feasible packing that serves every tenant at least as accurately
		// as its dedicated pick, versus the summed dedicated bills.
		var comparable explore.Packing
		haveComp := false
		for _, p := range feas {
			ok := true
			for i, a := range p.Assignments {
				if dedicated[i].Found && a.Acc.Top1+1e-9 < dedicated[i].Acc.Top1 {
					ok = false
					break
				}
			}
			if ok && (!haveComp || p.Cost < comparable.Cost) {
				comparable, haveComp = p, true
			}
		}
		if total > 0 && haveComp {
			fmt.Printf("co-location: matching dedicated accuracy, the shared pool costs $%.2f vs $%.2f dedicated (%.0f%% of the bill); degrading to the cheapest feasible packing costs $%.2f\n",
				comparable.Cost, total, comparable.Cost/total*100, best.Cost)
		}
	}
	return writeTelemetry(*metricsOut, *traceOut)
}
