package tenant

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/tensor"
)

// LoadConfig parameterizes one open-loop multi-tenant replay. Each tenant
// generates its own Poisson arrival process at Spec.OfferedQPS (falling
// back to its QPS quota, then 20/s), so a flooding tenant is expressed as
// OfferedQPS ≫ QPS in the spec file.
type LoadConfig struct {
	// Duration is the wall-clock length of the replay (required).
	Duration time.Duration
	// Seed drives every tenant's arrival process (tenant i draws from
	// Seed+i in registry order, so runs replay deterministically).
	Seed int64
	// Cooldown keeps the fleet running idle after the last arrival so an
	// autoscaler can observe recovery (0 = none).
	Cooldown time.Duration
}

// TenantReport is one tenant's slice of a multi-tenant load test. Its
// Tally's Rejected counts the tenant's quota rejections (the 429s).
type TenantReport struct {
	Name       string  `json:"name"`
	OfferedQPS float64 `json:"offered_qps"`
	QPSQuota   float64 `json:"qps_quota"`
	SLOMS      float64 `json:"slo_ms"`

	serving.Tally
	Retries int64 `json:"retries"`

	// OnTime counts served requests that beat the tenant's SLO;
	// OnTimeFrac is their fraction of OK.
	OnTime     int64   `json:"on_time"`
	OnTimeFrac float64 `json:"on_time_frac"`

	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`

	// Stages attributes this tenant's latency to pipeline stages.
	Stages serving.Stages `json:"stages"`
}

// Report summarizes one multi-tenant load test, one row per tenant.
type Report struct {
	Tenants     []TenantReport `json:"tenants"`
	WallSeconds float64        `json:"wall_seconds"`
	// Throughput is fleet-wide served requests per wall second.
	Throughput float64 `json:"throughput_rps"`
}

// Tenant returns the named row (nil when absent).
func (r *Report) Tenant(name string) *TenantReport {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// ErrorRate is the worst per-tenant error rate — the chaos smoke gates on
// the fleet's weakest tenant, since a mean would let a noisy neighbor
// hide a starved one.
func (r *Report) ErrorRate() float64 {
	worst := 0.0
	for i := range r.Tenants {
		if e := r.Tenants[i].ErrorRate(); e > worst {
			worst = e
		}
	}
	return worst
}

// RunLoad replays every tenant's Poisson arrival process open-loop
// against the gateway hosting reg's tenants: tenant i draws its stream
// from Seed+i in registry order, and the streams merge by time into one
// schedule. It returns after every response has arrived and the cooldown
// has elapsed. The caller owns Gateway Start/Stop (and any autoscaler's).
func RunLoad(g *serving.Gateway, reg *Registry, cfg LoadConfig) (*Report, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("tenant: load config needs a positive duration")
	}
	specs := reg.Specs()
	rep := &Report{Tenants: make([]TenantReport, len(specs))}
	var sched []serving.Arrival
	for i, spec := range specs {
		rate := spec.OfferedQPS
		if rate <= 0 {
			rate = spec.QPS
		}
		if rate <= 0 {
			rate = 20
		}
		rep.Tenants[i] = TenantReport{Name: spec.Name, OfferedQPS: rate, QPSQuota: spec.QPS, SLOMS: spec.SLOMS}
		// Poisson process: exponential inter-arrival gaps at the rate.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at >= cfg.Duration {
				break
			}
			sched = append(sched, serving.Arrival{At: at, Tenant: spec.Name})
		}
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].At < sched[b].At })

	run := serving.Replay[serving.Response]{
		Schedule: sched,
		Seed:     cfg.Seed,
		Cooldown: cfg.Cooldown,
		Tracer:   g.Config().Tracer,
		Ladder:   g.Ladder,
		Submit: func(ctx context.Context, i int, img *tensor.Tensor, deadline time.Time) (<-chan serving.Response, error) {
			return g.SubmitAs(ctx, sched[i].Tenant, img, deadline)
		},
	}.Run()
	rep.WallSeconds = run.Wall.Seconds()

	stages := g.StageStatsByTenant()
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		tr.Tally = run.Tenants[tr.Name]
		st := g.TenantStats(tr.Name)
		tr.Retries = st.Retries
		tr.OnTime = st.OnTime
		tr.Degrades = st.Degrades
		tr.Restores = st.Restores
		if tr.OK > 0 {
			tr.OnTimeFrac = float64(tr.OnTime) / float64(st.Served)
		}
		tr.Stages = stages[tr.Name]
	}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(run.Total.Served()) / rep.WallSeconds
	}
	return rep, nil
}

// String renders the report for the CLI: one block per tenant plus the
// fleet throughput.
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Tenants {
		t := &r.Tenants[i]
		fmt.Fprintf(&b, "tenant %-10s: %d submitted, %d ok, %d rejected (429), %d shed, %d expired, %d faulted, %d stopped, %d other\n",
			t.Name, t.Submitted, t.OK, t.Rejected, t.Shed, t.Expired, t.Faulted, t.Stopped, t.Other)
		fmt.Fprintf(&b, "  latency  : p50 %.1f ms, p99 %.1f ms (SLO %.0f ms), %.1f%% on-time, %.2f%% errors\n",
			t.P50MS, t.P99MS, t.SLOMS, t.OnTimeFrac*100, t.ErrorRate()*100)
		fmt.Fprintf(&b, "  accuracy : %.1f%% mean proxy, ladder %v (%d degrades, %d restores)\n",
			t.MeanAccuracy*100, t.PerVariant, t.Degrades, t.Restores)
	}
	fmt.Fprintf(&b, "fleet: %.0f req/s served over %.2f s\n", r.Throughput, r.WallSeconds)
	return b.String()
}
