package tenant

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// ProfilesFromLadder derives joint-policy profiles from a built variant
// ladder: accuracy proxies come from the variants, speeds from the caller
// (predictor-derived per-batch time ratios; nil = all 1, a conservative
// "degrading frees nothing" model that makes the policy prefer replicas).
// Use autoscale.BuildProfiles when a predictor is available.
func ProfilesFromLadder(ladder []serving.Variant, speeds []float64) []autoscale.Profile {
	out := make([]autoscale.Profile, len(ladder))
	for i, v := range ladder {
		speed := 1.0
		if i < len(speeds) && speeds[i] > 0 {
			speed = speeds[i]
		}
		out[i] = autoscale.Profile{Degree: v.Degree.Label(), Accuracy: v.Accuracy, Speed: speed}
	}
	return out
}

// ScalerConfig parameterizes a joint Scaler. Zero fields take the
// documented defaults.
type ScalerConfig struct {
	// Policy is the joint decision table; its Limits bound the shared
	// fleet (replica caps, price, joint budget).
	Policy autoscale.JointPolicy
	// Profiles describes each tenant's ladder to the policy, keyed by
	// tenant name (required for every tenant; build with
	// autoscale.BuildProfiles or ProfilesFromLadder).
	Profiles map[string][]autoscale.Profile
	// Interval is the control tick period (default 250ms, min 1ms).
	Interval time.Duration
	// Registry and Tracer receive telemetry (nil = package defaults).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

// JointDecision is one applied joint tick, kept for status and tests.
type JointDecision struct {
	Tick   int64                 `json:"tick"`
	Verb   string                `json:"verb"`
	Tenant string                `json:"tenant,omitempty"`
	Reason string                `json:"reason"`
	Signal autoscale.JointSignal `json:"signal"`
}

// tenantScalerState is the scaler's per-tenant delta bookkeeping plus its
// resolved autoscale.tenant.* instruments.
type tenantScalerState struct {
	name          string
	profiles      []autoscale.Profile
	lastSubmitted int64
	lastErrors    int64
	cumServed     int64

	degrades, restores *telemetry.Counter
	costPerHour        *telemetry.Gauge
	arrivalRate        *telemetry.Gauge
	p99Gauge           *telemetry.Gauge
}

// Scaler drives a multi-tenant gateway along both joint axes: the shared
// replica count and each tenant's ladder rung. Every tick it assembles one
// per-tenant signal set (arrival rates, p99 vs SLO, queue pressure,
// attributed $/hr), asks the pure autoscale.JointPolicy for a move, and
// actuates it through Gateway.ScaleTo / Gateway.SetTenantVariant — the
// multi-tenant counterpart of autoscale.Autoscaler.
type Scaler struct {
	gw       *serving.Gateway
	reg      *Registry
	pol      autoscale.JointPolicy
	interval time.Duration
	tracer   *telemetry.Tracer

	stopOnce  sync.Once
	startOnce sync.Once
	stopCh    chan struct{}
	done      chan struct{}

	mu          sync.Mutex
	ticks       int64
	counts      [5]int64 // per-verb, indexed by autoscale.Verb
	healthy     int
	sinceScale  int
	capEstimate float64
	lastServed  int64
	lastExecSec float64
	tstates     []*tenantScalerState
	// degradedFirst records the first tenant the policy ever degraded —
	// the observable answer to "who pays for capacity pressure first".
	degradedFirst string
	last          JointDecision

	ticksC *telemetry.Counter
	verbs  [5]*telemetry.Counter
	repsG  *telemetry.Gauge
	costG  *telemetry.Gauge
}

// NewScaler validates the config and binds a scaler to the gateway
// hosting reg's tenants (not yet ticking). Every tenant needs a profile
// set matching its ladder length.
func NewScaler(g *serving.Gateway, reg *Registry, cfg ScalerConfig) (*Scaler, error) {
	if g == nil || reg == nil {
		return nil, fmt.Errorf("tenant: scaler needs a gateway and a registry")
	}
	cfg.Policy = cfg.Policy.WithDefaults()
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer
	}
	tr := cfg.Registry
	s := &Scaler{
		gw:       g,
		reg:      reg,
		pol:      cfg.Policy,
		interval: cfg.Interval,
		tracer:   cfg.Tracer,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		ticksC:   tr.Counter("autoscale.tenant.ticks_total"),
		repsG:    tr.Gauge("autoscale.tenant.replicas"),
		costG:    tr.Gauge("autoscale.tenant.cost_per_hour"),
	}
	for v := autoscale.Hold; v <= autoscale.Restore; v++ {
		s.verbs[v] = tr.Counter("autoscale.tenant." + v.String() + "_total")
	}
	for _, name := range reg.Names() {
		prof := cfg.Profiles[name]
		ladder := g.Ladder(name)
		if ladder == nil {
			return nil, fmt.Errorf("tenant: gateway does not host tenant %s", name)
		}
		if len(prof) == 0 {
			return nil, fmt.Errorf("tenant: scaler needs profiles for tenant %s", name)
		}
		if len(prof) != len(ladder) {
			return nil, fmt.Errorf("tenant: %d profiles for tenant %s's %d-rung ladder",
				len(prof), name, len(ladder))
		}
		s.tstates = append(s.tstates, &tenantScalerState{
			name:        name,
			profiles:    prof,
			degrades:    tr.Counter("autoscale.tenant.degrade_total." + name),
			restores:    tr.Counter("autoscale.tenant.restore_total." + name),
			costPerHour: tr.Gauge("autoscale.tenant.cost_per_hour." + name),
			arrivalRate: tr.Gauge("autoscale.tenant.arrival_rate." + name),
			p99Gauge:    tr.Gauge("autoscale.tenant.p99_seconds." + name),
		})
	}
	// Start the cooldown satisfied so the first genuine surge can act.
	s.sinceScale = s.pol.CooldownTicks
	s.repsG.Set(float64(g.ReplicaCount()))
	return s, nil
}

// Policy returns the scaler's joint decision table.
func (s *Scaler) Policy() autoscale.JointPolicy { return s.pol }

// Interval returns the resolved tick period.
func (s *Scaler) Interval() time.Duration { return s.interval }

// Start launches the tick loop. Call after Gateway.Start.
func (s *Scaler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			ticker := time.NewTicker(s.interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s.Tick()
				case <-s.stopCh:
					return
				}
			}
		}()
	})
}

// Stop halts the tick loop (idempotent; does not stop the gateway).
func (s *Scaler) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
}

// Tick runs one joint control step: observe every tenant, decide, actuate.
// Exported so tests can step the loop deterministically.
func (s *Scaler) Tick() JointDecision {
	s.mu.Lock()
	defer s.mu.Unlock()

	sig := s.observeLocked()
	act := s.pol.Decide(sig)
	s.applyLocked(act, sig)

	s.ticks++
	d := JointDecision{
		Tick: s.ticks, Verb: act.Verb.String(),
		Tenant: act.Tenant, Reason: act.Reason, Signal: sig,
	}
	s.last = d
	return d
}

// observeLocked assembles one tick's JointSignal: per-tenant rates and
// windows, served-share cost attribution, and the busy-time capacity
// estimator normalized to rung 0 by the served-weighted mean speed.
func (s *Scaler) observeLocked() autoscale.JointSignal {
	dtSec := s.interval.Seconds()
	replicas := s.gw.ReplicaCount()
	fleetRate := float64(replicas) * s.pol.Limits.PricePerReplicaHour

	var totalServed int64
	sigs := make([]serving.Signal, len(s.tstates))
	rows := make([]serving.TenantStats, len(s.tstates))
	for i, ts := range s.tstates {
		sig, err := s.gw.TenantSignal(ts.name)
		if err != nil {
			continue
		}
		sigs[i], rows[i] = sig, s.gw.TenantStats(ts.name)
		ts.cumServed = rows[i].Served
		totalServed += rows[i].Served
	}

	var meanSpeedNum, meanSpeedDen float64
	tenants := make([]autoscale.TenantSignal, 0, len(s.tstates))
	for i, ts := range s.tstates {
		o, sig := rows[i], sigs[i]
		spec, _ := s.reg.Get(ts.name)
		// Offered = everything that knocked (admitted + shed + rejected);
		// errors exclude quota rejections — those are intentional
		// back-pressure, not service failures.
		offered := o.Submitted
		errs := o.Shed + o.Expired + o.Faulted
		arrival := float64(offered-ts.lastSubmitted) / dtSec
		errRate := 0.0
		if d := offered - ts.lastSubmitted; d > 0 {
			errRate = float64(errs-ts.lastErrors) / float64(d)
		}
		ts.lastSubmitted, ts.lastErrors = offered, errs

		share := 0.0
		if totalServed > 0 {
			share = float64(o.Served) / float64(totalServed)
		} else if len(s.tstates) > 0 {
			share = 1 / float64(len(s.tstates))
		}
		cost := fleetRate * share
		ts.costPerHour.Set(cost)
		ts.arrivalRate.Set(arrival)
		ts.p99Gauge.Set(sig.P99)

		v := o.Variant
		if v >= 0 && v < len(ts.profiles) {
			sp := ts.profiles[v].Speed
			if sp <= 0 {
				sp = 1
			}
			meanSpeedNum += float64(o.Served) * sp
			meanSpeedDen += float64(o.Served)
		}

		tenants = append(tenants, autoscale.TenantSignal{
			Name:           ts.name,
			ArrivalRate:    arrival,
			P99:            sig.P99,
			Samples:        sig.Samples,
			QueueFrac:      sig.QueueFrac,
			ErrorRate:      errRate,
			Variant:        v,
			SLOSeconds:     spec.SLO().Seconds(),
			CostPerHour:    cost,
			MaxCostPerHour: spec.MaxCostPerHour,
			Profiles:       ts.profiles,
		})
	}

	// Capacity estimate: requests per busy-second of one batcher over the
	// tick, normalized to rung 0 by the mix's served-weighted mean speed.
	served, execSec := s.gw.ExecStats()
	if dServed, dExec := served-s.lastServed, execSec-s.lastExecSec; dExec > 0 && dServed > 0 {
		meanSpeed := 1.0
		if meanSpeedDen > 0 && meanSpeedNum > 0 {
			meanSpeed = meanSpeedNum / meanSpeedDen
		}
		s.capEstimate = float64(dServed) / dExec / meanSpeed
	}
	s.lastServed, s.lastExecSec = served, execSec

	return autoscale.JointSignal{
		Tenants:            tenants,
		Replicas:           replicas,
		CapacityPerReplica: s.capEstimate,
		Healthy:            s.healthy,
		SinceScale:         s.sinceScale,
	}
}

// applyLocked actuates one joint decision. The per-tenant decision span
// opens before actuation so the gateway's serving.set_variant span
// parents under it.
func (s *Scaler) applyLocked(act autoscale.JointAction, sig autoscale.JointSignal) {
	s.healthy = act.Healthy
	s.counts[act.Verb]++
	ctx := context.Background()
	var finish telemetry.FinishFunc
	if act.Verb != autoscale.Hold {
		name := "autoscale.tenant." + act.Verb.String()
		ctx, finish = s.tracer.StartSpan(ctx, name)
	}
	switch act.Verb {
	case autoscale.ScaleOut, autoscale.ScaleIn:
		s.sinceScale = 0
		s.gw.ScaleTo(act.Replicas)
	case autoscale.Degrade, autoscale.Restore:
		s.sinceScale++
		s.gw.SetTenantVariant(ctx, act.Tenant, act.Variant)
		for _, ts := range s.tstates {
			if ts.name != act.Tenant {
				continue
			}
			if act.Verb == autoscale.Degrade {
				ts.degrades.Inc()
				if s.degradedFirst == "" {
					s.degradedFirst = act.Tenant
				}
			} else {
				ts.restores.Inc()
			}
		}
	default:
		s.sinceScale++
	}
	s.verbs[act.Verb].Inc()
	s.ticksC.Inc()
	s.repsG.Set(float64(s.gw.ReplicaCount()))
	s.costG.Set(float64(s.gw.ReplicaCount()) * s.pol.Limits.PricePerReplicaHour)
	if finish != nil {
		finish(
			telemetry.L("tenant", act.Tenant),
			telemetry.L("replicas", act.Replicas),
			telemetry.L("variant", act.Variant),
			telemetry.L("reason", act.Reason),
		)
	}
}

// TenantCost is one tenant's share of the joint bill: attributed dollars
// (by served-request share of the fleet's replica-seconds) and the
// $/million-on-time-requests headline the explore layer reports offline.
type TenantCost struct {
	Name string `json:"name"`
	// Share is the tenant's served fraction of fleet traffic.
	Share float64 `json:"share"`
	// CostUSD is the tenant's attributed slice of the fleet rental bill;
	// CostPerHour its current attributed burn rate.
	CostUSD     float64 `json:"cost_usd"`
	CostPerHour float64 `json:"cost_per_hour"`
	// OnTime counts served requests that beat the tenant's SLO;
	// DollarsPerMillionOnTime = CostUSD / OnTime × 1e6 (0 when nothing
	// was on time).
	OnTime                  int64   `json:"on_time"`
	DollarsPerMillionOnTime float64 `json:"dollars_per_million_on_time"`
	Degrades                int64   `json:"degrades"`
	Restores                int64   `json:"restores"`
}

// JointStatus is the scaler's point-in-time view: verb tallies, the joint
// bill split per tenant, who degraded first, and who degrades next.
type JointStatus struct {
	Ticks     int64 `json:"ticks"`
	Replicas  int   `json:"replicas"`
	ScaleOuts int64 `json:"scale_outs"`
	ScaleIns  int64 `json:"scale_ins"`
	Degrades  int64 `json:"degrades"`
	Restores  int64 `json:"restores"`
	Holds     int64 `json:"holds"`
	// Cost prices the gateway's replica-seconds integral at the policy
	// price.
	Cost           float64 `json:"cost_usd"`
	CostPerHour    float64 `json:"cost_per_hour"`
	BudgetPerHour  float64 `json:"budget_per_hour"`
	ReplicaSeconds float64 `json:"replica_seconds"`
	// DegradedFirst is the first tenant the policy degraded ("" = none
	// yet); DegradeOrder is who would degrade next, in policy order.
	DegradedFirst string        `json:"degraded_first,omitempty"`
	DegradeOrder  []string      `json:"degrade_order"`
	Tenants       []TenantCost  `json:"tenants"`
	LastDecision  JointDecision `json:"last_decision"`
}

// Status snapshots the scaler, splitting the fleet bill across tenants by
// served-request share.
func (s *Scaler) Status() JointStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	repSec := s.gw.ReplicaSeconds()
	price := s.pol.Limits.PricePerReplicaHour
	totalCost := repSec / 3600 * price
	replicas := s.gw.ReplicaCount()
	fleetRate := float64(replicas) * price

	var totalServed int64
	rows := s.gw.AllTenantStats()
	for _, r := range rows {
		totalServed += r.Served
	}
	tenants := make([]TenantCost, 0, len(rows))
	for _, r := range rows {
		share := 0.0
		if totalServed > 0 {
			share = float64(r.Served) / float64(totalServed)
		} else if len(rows) > 0 {
			share = 1 / float64(len(rows))
		}
		tc := TenantCost{
			Name:        r.Name,
			Share:       share,
			CostUSD:     totalCost * share,
			CostPerHour: fleetRate * share,
			OnTime:      r.OnTime,
			Degrades:    r.Degrades,
			Restores:    r.Restores,
		}
		if r.OnTime > 0 {
			tc.DollarsPerMillionOnTime = tc.CostUSD / float64(r.OnTime) * 1e6
		}
		tenants = append(tenants, tc)
	}
	return JointStatus{
		Ticks:          s.ticks,
		Replicas:       replicas,
		ScaleOuts:      s.counts[autoscale.ScaleOut],
		ScaleIns:       s.counts[autoscale.ScaleIn],
		Degrades:       s.counts[autoscale.Degrade],
		Restores:       s.counts[autoscale.Restore],
		Holds:          s.counts[autoscale.Hold],
		Cost:           totalCost,
		CostPerHour:    fleetRate,
		BudgetPerHour:  s.pol.Limits.BudgetPerHour,
		ReplicaSeconds: repSec,
		DegradedFirst:  s.degradedFirst,
		DegradeOrder:   s.pol.DegradeOrder(s.last.Signal),
		Tenants:        tenants,
		LastDecision:   s.last,
	}
}
