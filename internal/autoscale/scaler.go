package autoscale

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// Config parameterizes a Scaler. Zero fields take the documented defaults.
type Config struct {
	// Policy is the decision table; its Limits bound the shared fleet
	// (replica caps, price, fleet budget).
	Policy Policy
	// Profiles describes each tenant's ladder to the policy, keyed by
	// tenant name: required for every tenant the gateway hosts (a
	// single-tenant gateway's one tenant is serving.DefaultTenant). Build
	// them with BuildProfiles or ProfilesFromLadder.
	Profiles map[string][]Profile
	// MaxCostPerHour caps tenants' attributed $/hr shares, keyed by tenant
	// name (absent or 0 = uncapped).
	MaxCostPerHour map[string]float64
	// Interval is the control tick period (default 250ms, min 1ms).
	Interval time.Duration
}

// Decision is one applied tick, kept for /autoscale/status and tests.
type Decision struct {
	Tick   int64  `json:"tick"`
	Verb   string `json:"verb"`
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason"`
	Signal Signal `json:"signal"`
}

// tenantState is one tenant as the scaler sees it: the SLO, $/hr cap and
// profiles it decides with, its delta bookkeeping between ticks, and its
// resolved autoscale.tenant.*.<name> instruments.
type tenantState struct {
	name          string
	slo, maxCost  float64
	profiles      []Profile
	lastSubmitted int64
	lastErrors    int64

	degrades, restores            *telemetry.Counter
	costPerHour, arrivalRate, p99 *telemetry.Gauge
}

// Scaler drives a serving.Gateway along both cost-accuracy axes: the
// shared replica count and each tenant's ladder rung. Every tick it reads
// the gateway's per-tenant signals (arrival rate, p99 versus SLO, queue
// pressure, attributed $/hr), folds in the predictor-derived rung
// profiles and a busy-time capacity estimate, asks the pure Policy for a
// move, and actuates it through Gateway.ScaleTo / SetTenantVariant. A
// single-tenant gateway is driven as its one DefaultTenant.
//
// Construct with New against a gateway built with Config.ExternalControl
// (a multi-tenant gateway always is), so the built-in one-axis controller
// stays out of the way, then Start/Stop around the gateway's own
// lifecycle. The scaler meters into the gateway's registry and tracer.
type Scaler struct {
	g        *serving.Gateway
	pol      Policy
	interval time.Duration
	tracer   *telemetry.Tracer

	stopOnce  sync.Once
	startOnce sync.Once
	stopCh    chan struct{}
	done      chan struct{}

	mu     sync.Mutex
	ticks  int64
	counts [5]int64 // per-verb decisions, indexed by Verb — this
	// scaler's own tally, independent of the (possibly shared) registry
	healthy     int
	sinceScale  int
	capEstimate float64 // rung-0 req/s per replica, last known
	lastServed  int64
	lastExecSec float64
	tenants     []*tenantState
	// degradedFirst records the first tenant the policy ever degraded —
	// the observable answer to "who pays for capacity pressure first".
	degradedFirst string
	last          Decision

	m scalerMetrics
}

type scalerMetrics struct {
	ticks                       *telemetry.Counter
	verbs                       [5]*telemetry.Counter // autoscale.<verb>_total
	replicas, arrivalRate       *telemetry.Gauge
	capacityPerRep, costPerHour *telemetry.Gauge
	budgetUtilization           *telemetry.Gauge
}

// New validates the config and binds a scaler to g (not yet ticking).
// Every tenant the gateway hosts needs a profile set matching its ladder;
// its SLO is the one the gateway resolved for it.
func New(g *serving.Gateway, cfg Config) (*Scaler, error) {
	if g == nil {
		return nil, fmt.Errorf("autoscale: nil gateway")
	}
	cfg.Policy = cfg.Policy.withDefaults()
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	gc := g.Config()
	reg := gc.Registry
	s := &Scaler{
		g:        g,
		pol:      cfg.Policy,
		interval: cfg.Interval,
		tracer:   gc.Tracer,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		m: scalerMetrics{
			ticks:             reg.Counter("autoscale.ticks_total"),
			replicas:          reg.Gauge("autoscale.replicas"),
			arrivalRate:       reg.Gauge("autoscale.arrival_rate"),
			capacityPerRep:    reg.Gauge("autoscale.capacity_per_replica"),
			costPerHour:       reg.Gauge("autoscale.cost_per_hour"),
			budgetUtilization: reg.Gauge("autoscale.budget_utilization"),
		},
	}
	for v := Hold; v <= Restore; v++ {
		s.m.verbs[v] = reg.Counter("autoscale." + v.String() + "_total")
	}
	for _, t := range g.Tenants() {
		prof := cfg.Profiles[t.Name]
		if len(prof) != len(t.Ladder) {
			return nil, fmt.Errorf("autoscale: %d profiles for tenant %s's %d-rung ladder",
				len(prof), t.Name, len(t.Ladder))
		}
		n := t.Name
		s.tenants = append(s.tenants, &tenantState{
			name:        n,
			slo:         t.SLO.Seconds(),
			maxCost:     cfg.MaxCostPerHour[n],
			profiles:    prof,
			degrades:    reg.Counter("autoscale.tenant.degrade_total." + n),
			restores:    reg.Counter("autoscale.tenant.restore_total." + n),
			costPerHour: reg.Gauge("autoscale.tenant.cost_per_hour." + n),
			arrivalRate: reg.Gauge("autoscale.tenant.arrival_rate." + n),
			p99:         reg.Gauge("autoscale.tenant.p99_seconds." + n),
		})
	}
	// Start the cooldown satisfied so the first genuine surge can act.
	s.sinceScale = s.pol.CooldownTicks
	s.m.replicas.Set(float64(g.ReplicaCount()))
	return s, nil
}

// Policy returns the resolved (defaulted) decision table.
func (s *Scaler) Policy() Policy { return s.pol }

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
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock waiters
	<-s.done
}

// Tick runs one control step: observe every tenant, decide, actuate.
// Exported so tests and simulations can step the loop deterministically
// without the ticker.
func (s *Scaler) Tick() Decision {
	s.mu.Lock()
	defer s.mu.Unlock()

	sig := s.observeLocked()
	act := s.pol.Decide(sig)
	s.applyLocked(act, sig)

	s.ticks++
	s.last = Decision{
		Tick: s.ticks, Verb: act.Verb.String(),
		Tenant: act.Tenant, Reason: act.Reason, Signal: sig,
	}
	return s.last
}

// servedShare is a tenant's fraction of fleet traffic — the key the bill
// is split by (an even split before anything is served).
func servedShare(served, total int64, tenants int) float64 {
	if total > 0 {
		return float64(served) / float64(total)
	}
	return 1 / float64(tenants)
}

// observeLocked assembles one tick's Signal: per-tenant rates and
// windows, served-share cost attribution, and the busy-time capacity
// estimator normalized to rung 0 by the served-weighted mean speed. For
// one tenant the mean speed is its current rung's.
func (s *Scaler) observeLocked() Signal {
	dtSec := s.interval.Seconds()
	replicas := s.g.ReplicaCount()
	fleetRate := float64(replicas) * s.pol.Limits.PricePerReplicaHour

	rows := make([]serving.TenantStats, len(s.tenants))
	var totalServed int64
	for i, ts := range s.tenants {
		rows[i] = s.g.TenantStats(ts.name)
		totalServed += rows[i].Served
	}

	var meanSpeedNum, meanSpeedDen float64
	sig := Signal{
		Tenants:    make([]TenantSignal, 0, len(s.tenants)),
		Replicas:   replicas,
		Healthy:    s.healthy,
		SinceScale: s.sinceScale,
	}
	for i, ts := range s.tenants {
		o := rows[i]
		win, _ := s.g.TenantSignal(ts.name) // the name came from the gateway
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

		cost := fleetRate * servedShare(o.Served, totalServed, len(s.tenants))
		ts.costPerHour.Set(cost)
		ts.arrivalRate.Set(arrival)
		ts.p99.Set(win.P99)

		t := TenantSignal{
			Name:           ts.name,
			ArrivalRate:    arrival,
			P99:            win.P99,
			Samples:        win.Samples,
			QueueFrac:      win.QueueFrac,
			ErrorRate:      errRate,
			Variant:        o.Variant,
			SLOSeconds:     ts.slo,
			CostPerHour:    cost,
			MaxCostPerHour: ts.maxCost,
			Profiles:       ts.profiles,
		}
		meanSpeedNum += float64(o.Served) * t.speed(o.Variant)
		meanSpeedDen += float64(o.Served)
		sig.Tenants = append(sig.Tenants, t)
	}

	// Capacity estimate: requests per busy-second of one batcher over the
	// tick, normalized to rung 0 by the mix's served-weighted mean speed.
	// Ticks with no executions keep the last estimate (idle ≠ incapable).
	served, execSec := s.g.ExecStats()
	if dServed, dExec := served-s.lastServed, execSec-s.lastExecSec; dExec > 0 && dServed > 0 {
		meanSpeed := 1.0
		if meanSpeedDen > 0 && meanSpeedNum > 0 {
			meanSpeed = meanSpeedNum / meanSpeedDen
		}
		s.capEstimate = float64(dServed) / dExec / meanSpeed
	}
	s.lastServed, s.lastExecSec = served, execSec
	sig.CapacityPerReplica = s.capEstimate
	return sig
}

// applyLocked actuates one decision and records it. The verb span opens
// before actuation so the gateway-side span the decision causes
// (serving.set_variant) parents under it — the trace tree shows which
// decision moved whose ladder.
func (s *Scaler) applyLocked(act Action, sig Signal) {
	s.healthy = act.Healthy
	s.counts[act.Verb]++
	ctx := context.Background()
	var finish telemetry.FinishFunc
	if act.Verb != Hold {
		ctx, finish = s.tracer.StartSpan(ctx, "autoscale."+act.Verb.String())
	}
	switch act.Verb {
	case ScaleOut, ScaleIn:
		s.sinceScale = 0
		s.g.ScaleTo(act.Replicas)
	case Degrade, Restore:
		s.sinceScale++
		s.g.SetTenantVariant(ctx, act.Tenant, act.Variant)
		for _, ts := range s.tenants {
			switch {
			case ts.name != act.Tenant:
			case act.Verb == Restore:
				ts.restores.Inc()
			default:
				ts.degrades.Inc()
				if s.degradedFirst == "" {
					s.degradedFirst = act.Tenant
				}
			}
		}
	default:
		s.sinceScale++
	}
	var arrival float64
	for _, t := range sig.Tenants {
		arrival += t.ArrivalRate
	}
	replicas := float64(s.g.ReplicaCount())
	costPerHour := replicas * s.pol.Limits.PricePerReplicaHour
	s.m.ticks.Inc()
	s.m.verbs[act.Verb].Inc()
	s.m.replicas.Set(replicas)
	s.m.arrivalRate.Set(arrival)
	s.m.capacityPerRep.Set(sig.CapacityPerReplica)
	s.m.costPerHour.Set(costPerHour)
	if b := s.pol.Limits.BudgetPerHour; b > 0 {
		s.m.budgetUtilization.Set(costPerHour / b)
	}
	if finish != nil {
		finish(
			telemetry.L("tenant", act.Tenant),
			telemetry.L("replicas", act.Replicas),
			telemetry.L("variant", act.Variant),
			telemetry.L("arrival_rate", arrival),
			telemetry.L("reason", act.Reason),
		)
	}
}

// TenantStatus is one tenant's row of the status: the rung it serves at
// and its share of the fleet bill — attributed dollars (by served-request
// share of the fleet's replica-seconds) and the $/million-on-time-requests
// headline the explore layer reports offline.
type TenantStatus struct {
	Name string `json:"name"`
	// Variant is the tenant's current rung; Degree labels its degree of
	// pruning.
	Variant int    `json:"variant"`
	Degree  string `json:"degree"`
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

// Status is the scaler's point-in-time view, served at /autoscale/status
// and folded into the loadtest report: verb tallies, the fleet bill split
// per tenant, who degraded first, and who degrades next.
type Status struct {
	Ticks     int64 `json:"ticks"`
	Replicas  int   `json:"replicas"`
	ScaleOuts int64 `json:"scale_outs"`
	ScaleIns  int64 `json:"scale_ins"`
	Degrades  int64 `json:"degrades"`
	Restores  int64 `json:"restores"`
	Holds     int64 `json:"holds"`
	// Cost prices the gateway's replica-seconds integral at the policy
	// price; CostPerHour is the current burn rate against BudgetPerHour.
	Cost           float64 `json:"cost_usd"`
	CostPerHour    float64 `json:"cost_per_hour"`
	BudgetPerHour  float64 `json:"budget_per_hour"`
	ReplicaSeconds float64 `json:"replica_seconds"`
	// DegradedFirst is the first tenant the policy degraded ("" = none
	// yet); DegradeOrder is who would degrade next, in policy order.
	DegradedFirst string         `json:"degraded_first,omitempty"`
	DegradeOrder  []string       `json:"degrade_order"`
	Tenants       []TenantStatus `json:"tenants"`
	LastDecision  Decision       `json:"last_decision"`
}

// Status snapshots the scaler, splitting the fleet bill across tenants by
// served-request share.
func (s *Scaler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	repSec := s.g.ReplicaSeconds()
	price := s.pol.Limits.PricePerReplicaHour
	totalCost := repSec / 3600 * price
	replicas := s.g.ReplicaCount()
	fleetRate := float64(replicas) * price

	var totalServed int64
	rows := s.g.AllTenantStats()
	for _, r := range rows {
		totalServed += r.Served
	}
	tenants := make([]TenantStatus, 0, len(rows))
	for _, r := range rows {
		share := servedShare(r.Served, totalServed, len(rows))
		ts := TenantStatus{
			Name:        r.Name,
			Variant:     r.Variant,
			Degree:      r.Degree,
			Share:       share,
			CostUSD:     totalCost * share,
			CostPerHour: fleetRate * share,
			OnTime:      r.OnTime,
			Degrades:    r.Degrades,
			Restores:    r.Restores,
		}
		if r.OnTime > 0 {
			ts.DollarsPerMillionOnTime = ts.CostUSD / float64(r.OnTime) * 1e6
		}
		tenants = append(tenants, ts)
	}
	return Status{
		Ticks:          s.ticks,
		Replicas:       replicas,
		ScaleOuts:      s.counts[ScaleOut],
		ScaleIns:       s.counts[ScaleIn],
		Degrades:       s.counts[Degrade],
		Restores:       s.counts[Restore],
		Holds:          s.counts[Hold],
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

// Handler serves GET /autoscale/status: the scaler's Status as indented
// JSON. The gateway it drives is served by serving.Handler.
func Handler(s *Scaler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/autoscale/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Status())
	})
	return mux
}
