package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
)

// Errors of multi-tenant admission, returned by SubmitAs.
var (
	// ErrQuotaExceeded means the tenant's token-bucket admission quota was
	// empty: the request is rejected at the tenant's own front door (HTTP
	// 429) without touching shared capacity.
	ErrQuotaExceeded = errors.New("serving: tenant admission quota exceeded")
	// ErrUnknownTenant means the request named a tenant the gateway does
	// not host.
	ErrUnknownTenant = errors.New("serving: unknown tenant")
)

// Tenant declares one of the models a gateway hosts on its shared replica
// fleet: its own variant ladder plus its admission and scheduling knobs
// (internal/tenant builds these from its Spec). Zero fields inherit the
// gateway-wide Config value or take the stated default.
type Tenant struct {
	// Name is what SubmitAs names (required, unique within the gateway).
	Name string
	// Ladder is the tenant's variant ladder, least pruned first
	// (required). Rungs are never shared across tenants.
	Ladder []Variant
	// Weight is the tenant's deficit-round-robin share of replica time
	// (default 1): each scheduling round offers it Weight·MaxBatch
	// requests.
	Weight float64
	// QueueCap bounds the tenant's backlog (default Config.QueueCap);
	// overflow is shed with ErrOverloaded.
	QueueCap int
	// Deadline is the per-request deadline applied at admission when the
	// caller supplies none (default Config.Deadline).
	Deadline time.Duration
	// SLO is the latency target on-time accounting counts against
	// (default Config.SLO).
	SLO time.Duration
	// QPS is the admission quota in requests/second (0 = unlimited);
	// Burst is the token-bucket depth (default max(1, QPS)).
	QPS, Burst float64
}

// tenantState is one tenant's runtime: its resolved declaration, quota
// bucket, current rung, backlog, DRR deficit, latency window and
// instruments.
type tenantState struct {
	Tenant
	bucket  *bucket
	quantum float64 // DRR credit per round: Weight·MaxBatch
	variant atomic.Int64

	// backlog and deficit are guarded by Gateway.qMu.
	backlog []*request
	deficit float64

	// window collects completed-request latencies (seconds) since the
	// last signal, for the pruning controller or an external scaler.
	winMu  sync.Mutex
	window []float64

	m tenantMetrics
}

// tenantMetrics holds one tenant's resolved instruments: ledger counters
// and gauges under tenant.*.<name>, stage histograms under
// serving.*_seconds.<name>.
type tenantMetrics struct {
	submitted, admitted, rejected *telemetry.Counter
	shed, expired, served         *telemetry.Counter
	faulted, retries, onTime      *telemetry.Counter
	degrades, restores            *telemetry.Counter
	backlog, variant              *telemetry.Gauge
	queueWait, total              *telemetry.Histogram
	assembly, forward             *telemetry.Histogram
}

// resolveTenants validates the declared tenants (or, when none are
// declared, builds the single DefaultTenant from Ladder) and fills the
// inherited defaults. Call after the scalar defaults are set.
func (c *Config) resolveTenants() ([]Tenant, error) {
	decl := c.Tenants
	switch {
	case len(decl) > 0 && len(c.Ladder) > 0:
		return nil, fmt.Errorf("serving: config sets both Ladder and Tenants")
	case len(decl) == 0 && len(c.Ladder) == 0:
		return nil, fmt.Errorf("serving: config needs a non-empty Ladder or Tenants")
	case len(decl) == 0:
		decl = []Tenant{{Name: DefaultTenant, Ladder: c.Ladder}}
	}
	out := make([]Tenant, len(decl))
	seen := make(map[string]bool, len(decl))
	for i, t := range decl {
		switch {
		case t.Name == "":
			return nil, fmt.Errorf("serving: tenant %d has no name", i)
		case seen[t.Name]:
			return nil, fmt.Errorf("serving: duplicate tenant %q", t.Name)
		case len(t.Ladder) == 0:
			return nil, fmt.Errorf("serving: tenant %s has an empty ladder", t.Name)
		case t.Weight < 0 || t.QPS < 0 || t.Burst < 0 || t.QueueCap < 0 || t.Deadline < 0 || t.SLO < 0:
			return nil, fmt.Errorf("serving: tenant %s has a negative field", t.Name)
		}
		seen[t.Name] = true
		for j, v := range t.Ladder {
			if v.Net == nil {
				return nil, fmt.Errorf("serving: tenant %s: ladder variant %d has nil net", t.Name, j)
			}
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.QueueCap == 0 {
			t.QueueCap = c.QueueCap
		}
		if t.Deadline == 0 {
			t.Deadline = c.Deadline
		}
		if t.SLO == 0 {
			t.SLO = c.SLO
		}
		out[i] = t
	}
	return out, nil
}

// newTenantState builds one tenant's runtime and resolves its instruments.
func newTenantState(t Tenant, maxBatch int, reg *telemetry.Registry) *tenantState {
	n := t.Name
	return &tenantState{
		Tenant:  t,
		bucket:  newBucket(t.QPS, t.Burst),
		quantum: t.Weight * float64(maxBatch),
		m: tenantMetrics{
			submitted: reg.Counter("tenant.submitted_total." + n),
			admitted:  reg.Counter("tenant.admitted_total." + n),
			rejected:  reg.Counter("tenant.rejected_total." + n),
			shed:      reg.Counter("tenant.shed_total." + n),
			expired:   reg.Counter("tenant.expired_total." + n),
			served:    reg.Counter("tenant.served_total." + n),
			faulted:   reg.Counter("tenant.faulted_total." + n),
			retries:   reg.Counter("tenant.retries_total." + n),
			onTime:    reg.Counter("tenant.on_time_total." + n),
			degrades:  reg.Counter("tenant.degrade_total." + n),
			restores:  reg.Counter("tenant.restore_total." + n),
			backlog:   reg.Gauge("tenant.backlog." + n),
			variant:   reg.Gauge("tenant.variant." + n),
			queueWait: reg.Histogram("serving.queue_seconds."+n, nil),
			total:     reg.Histogram("serving.request_seconds."+n, nil),
			assembly:  reg.Histogram("serving.stage_assembly_seconds."+n, nil),
			forward:   reg.Histogram("serving.stage_forward_seconds."+n, nil),
		},
	}
}

// label is the tenant's span label, built as a literal because L would
// box the name into an interface, one allocation per request.
func (t *tenantState) label() telemetry.Label {
	return telemetry.Label{Key: "tenant", Value: t.Name}
}

// observeLatency adds one completed-request latency to the tenant's
// control window.
func (t *tenantState) observeLatency(sec float64) {
	t.winMu.Lock()
	t.window = append(t.window, sec)
	t.winMu.Unlock()
}

// takeWindow swaps out the tenant's latency window.
func (t *tenantState) takeWindow() []float64 {
	t.winMu.Lock()
	w := t.window
	t.window = nil
	t.winMu.Unlock()
	return w
}

// bucket is a token bucket: rate tokens/second refill up to burst, one
// token per admission. A zero rate means no quota. Time flows in through
// the caller so tests can drive it deterministically.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second (0 = unlimited)
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64) *bucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst}
}

// allow consumes one token if available at now.
func (b *bucket) allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// enqueue appends r to its tenant's backlog and wakes a replica, or
// reports false when the backlog is full.
func (g *Gateway) enqueue(r *request) bool {
	t := r.t
	g.qMu.Lock()
	if len(t.backlog) >= t.QueueCap {
		g.qMu.Unlock()
		return false
	}
	t.backlog = append(t.backlog, r)
	g.queued++
	g.m.queueDepth.Set(float64(g.queued))
	t.m.backlog.Set(float64(len(t.backlog)))
	g.qMu.Unlock()
	g.wake()
	return true
}

// wake nudges one sleeping replica. The buffer of one absorbs duplicate
// nudges; a replica that takes work while more stays queued re-nudges, so
// every sleeping replica eventually wakes.
func (g *Gateway) wake() {
	select {
	case g.arrivals <- struct{}{}:
	default:
	}
}

// popLocked moves up to n requests from the head of t's backlog onto
// batch. Callers hold qMu.
func (g *Gateway) popLocked(t *tenantState, batch []*request, n int) []*request {
	if l := len(t.backlog); l < n {
		n = l
	}
	batch = append(batch, t.backlog[:n]...)
	rest := copy(t.backlog, t.backlog[n:])
	clear(t.backlog[rest:])
	t.backlog = t.backlog[:rest]
	g.queued -= n
	g.m.queueDepth.Set(float64(g.queued))
	t.m.backlog.Set(float64(rest))
	return batch
}

// takeBatch picks the next single-tenant batch by weighted deficit
// round-robin. The scheduler visits backlogs in declaration order from
// the cursor; a fresh visit earns the tenant its quantum (Weight·MaxBatch)
// of deficit; up to min(MaxBatch, deficit) requests are taken; a tenant
// with deficit left keeps the scheduler (current) until its quantum or its
// backlog is spent, then the cursor moves on. An emptied backlog forfeits
// its deficit, so credit never accumulates while idle. With one tenant
// this is FIFO. Returns (nil, nil) when every backlog is empty.
func (g *Gateway) takeBatch() (*tenantState, []*request) {
	g.qMu.Lock()
	defer g.qMu.Unlock()
	n := len(g.tenants)
	if g.current >= 0 {
		t := g.tenants[g.current]
		if len(t.backlog) > 0 && t.deficit >= 1 {
			return t, g.dequeueLocked(t)
		}
		if len(t.backlog) == 0 {
			t.deficit = 0
		}
		g.cursor = (g.current + 1) % n
		g.current = -1
	}
	for scanned := 0; scanned < n; scanned++ {
		i := (g.cursor + scanned) % n
		t := g.tenants[i]
		if len(t.backlog) == 0 {
			t.deficit = 0
			continue
		}
		t.deficit += t.quantum
		g.current = i
		return t, g.dequeueLocked(t)
	}
	return nil, nil
}

// dequeueLocked takes up to min(MaxBatch, deficit) requests off the
// current tenant's backlog, charging its deficit. Callers hold qMu.
func (g *Gateway) dequeueLocked(t *tenantState) []*request {
	take := min(g.cfg.MaxBatch, int(t.deficit))
	if take < 1 {
		take = 1 // a sub-1 quantum must not stall the queue
	}
	batch := g.popLocked(t, make([]*request, 0, g.cfg.MaxBatch), take)
	t.deficit -= float64(len(batch))
	if len(t.backlog) == 0 {
		t.deficit = 0
		g.cursor = (g.current + 1) % len(g.tenants)
		g.current = -1
	}
	if g.queued > 0 {
		g.wake() // cascade: another sleeping replica can take the rest
	}
	return batch
}

// takeMore tops batch up to MaxBatch from t's backlog while the replica
// waits for its batch to fill. When another tenant has queued work it
// takes nothing and reports false: the wait ends, and the nudge passes on
// to a replica that can serve that tenant.
func (g *Gateway) takeMore(t *tenantState, batch []*request) ([]*request, bool) {
	g.qMu.Lock()
	defer g.qMu.Unlock()
	if g.queued > len(t.backlog) {
		g.wake()
		return batch, false
	}
	n := len(batch)
	batch = g.popLocked(t, batch, g.cfg.MaxBatch-n)
	if t.deficit -= float64(len(batch) - n); t.deficit < 0 {
		t.deficit = 0
	}
	return batch, true
}

// tenant resolves a SubmitAs name; "" means DefaultTenant.
func (g *Gateway) tenant(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	return g.byName[name]
}

// lookup is tenant with the ErrUnknownTenant error the exported
// per-tenant methods return.
func (g *Gateway) lookup(name string) (*tenantState, error) {
	if t := g.tenant(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
}

// Tenants returns the resolved tenant declarations in declaration order,
// inherited defaults filled in — a single-tenant gateway's one
// DefaultTenant included.
func (g *Gateway) Tenants() []Tenant {
	out := make([]Tenant, len(g.tenants))
	for i, t := range g.tenants {
		out[i] = t.Tenant
	}
	return out
}

// Ladder returns the named tenant's variant ladder (nil for an unknown
// tenant; shared slice, do not mutate).
func (g *Gateway) Ladder(name string) []Variant {
	if t := g.tenant(name); t != nil {
		return t.Ladder
	}
	return nil
}

// SetTenantVariant is SetVariant for the named tenant's ladder.
func (g *Gateway) SetTenantVariant(ctx context.Context, name string, target int) (int, error) {
	t, err := g.lookup(name)
	if err != nil {
		return 0, err
	}
	return g.setVariant(ctx, t, target), nil
}

// TenantSignal drains the named tenant's latency window and snapshots its
// backlog pressure: one control interval's observation for an external
// scaler. Healthy is left zero; the scaler keeps its own streak.
func (g *Gateway) TenantSignal(name string) (Signal, error) {
	t, err := g.lookup(name)
	if err != nil {
		return Signal{}, err
	}
	return g.signal(t), nil
}

func (g *Gateway) signal(t *tenantState) Signal {
	window := t.takeWindow()
	g.qMu.Lock()
	backlog := len(t.backlog)
	g.qMu.Unlock()
	return Signal{
		P99:       stats.Percentile(window, 0.99),
		Samples:   len(window),
		QueueFrac: float64(backlog) / float64(t.QueueCap),
	}
}

// TenantStats is one tenant's row in /gateway/status and the loadtest
// report.
type TenantStats struct {
	Name     string  `json:"name"`
	Variant  int     `json:"variant"`
	Degree   string  `json:"degree"`
	Accuracy float64 `json:"accuracy"`
	SLOMS    float64 `json:"slo_ms"`
	QPSQuota float64 `json:"qps_quota"`
	Weight   float64 `json:"weight"`
	Backlog  int     `json:"backlog"`
	QueueCap int     `json:"queue_cap"`

	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	// Rejected counts quota rejections (HTTP 429): intentional
	// back-pressure, tallied apart from error outcomes.
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
	Served   int64 `json:"served"`
	Faulted  int64 `json:"faulted"`
	Retries  int64 `json:"retries"`
	// OnTime counts served requests that beat the tenant's SLO.
	OnTime   int64 `json:"on_time"`
	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`
}

// TenantStats snapshots the named tenant (zero value for an unknown one).
func (g *Gateway) TenantStats(name string) TenantStats {
	t := g.tenant(name)
	if t == nil {
		return TenantStats{}
	}
	g.qMu.Lock()
	backlog := len(t.backlog)
	g.qMu.Unlock()
	vi := int(t.variant.Load())
	v := t.Ladder[vi]
	return TenantStats{
		Name:      t.Name,
		Variant:   vi,
		Degree:    v.Degree.Label(),
		Accuracy:  v.Accuracy,
		SLOMS:     float64(t.SLO) / float64(time.Millisecond),
		QPSQuota:  t.QPS,
		Weight:    t.Weight,
		Backlog:   backlog,
		QueueCap:  t.QueueCap,
		Submitted: t.m.submitted.Value(),
		Admitted:  t.m.admitted.Value(),
		Rejected:  t.m.rejected.Value(),
		Shed:      t.m.shed.Value(),
		Expired:   t.m.expired.Value(),
		Served:    t.m.served.Value(),
		Faulted:   t.m.faulted.Value(),
		Retries:   t.m.retries.Value(),
		OnTime:    t.m.onTime.Value(),
		Degrades:  t.m.degrades.Value(),
		Restores:  t.m.restores.Value(),
	}
}

// AllTenantStats returns every tenant's row in declaration order.
func (g *Gateway) AllTenantStats() []TenantStats {
	out := make([]TenantStats, len(g.tenants))
	for i, t := range g.tenants {
		out[i] = g.TenantStats(t.Name)
	}
	return out
}

// StageStatsByTenant summarizes each tenant's stage histograms, keyed by
// tenant name. Single-tenant traffic appears under DefaultTenant.
func (g *Gateway) StageStatsByTenant() map[string]Stages {
	out := make(map[string]Stages, len(g.tenants))
	for _, t := range g.tenants {
		out[t.Name] = Stages{
			QueueWait:     SummarizeStage(t.m.queueWait),
			BatchAssembly: SummarizeStage(t.m.assembly),
			NNForward:     SummarizeStage(t.m.forward),
		}
	}
	return out
}
