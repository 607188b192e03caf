package serving

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
	"ccperf/internal/workload"
)

// Arrival is one request of an open-loop schedule.
type Arrival struct {
	// At is the request's scheduled offset from the start of the replay.
	At time.Duration
	// Tenant is the tenant the request is submitted as.
	Tenant string
}

// Arrivals turns arrival offsets in seconds (workload.ArrivalTimes,
// workload.ShapedArrivals) into a schedule, assigning the tenants to
// consecutive arrivals in turn.
func Arrivals(offsets []float64, tenants ...string) []Arrival {
	out := make([]Arrival, len(offsets))
	for i, at := range offsets {
		out[i] = Arrival{At: time.Duration(at * float64(time.Second)), Tenant: tenants[i%len(tenants)]}
	}
	return out
}

// Tally is the one outcome ledger every load report shares. Each submitted
// request lands in exactly one bucket, so
// Submitted = OK+Late+Shed+Expired+Faulted+Stopped+Rejected+Other.
type Tally struct {
	Submitted int `json:"submitted"`
	OK        int `json:"ok"`
	// Late counts requests served after the replay's deadline, measured
	// from the scheduled arrival; it stays zero when the replay has none.
	Late    int `json:"late"`
	Shed    int `json:"shed"`
	Expired int `json:"expired"`
	// Faulted counts requests failed by fault injection after exhausting
	// their retries.
	Faulted int `json:"faulted"`
	Stopped int `json:"stopped"`
	// Rejected counts quota rejections (the 429s): deliberate
	// back-pressure, excluded from ErrorRate.
	Rejected int `json:"rejected"`
	Other    int `json:"other"`

	// Latency percentiles of the served requests, from each request's
	// scheduled arrival to the receipt of its response — so a generator
	// that falls behind its schedule shows up as latency.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	// MeanAccuracy is the request-weighted mean of the serving variants'
	// accuracy proxies; MinAccuracy is the worst variant any request saw.
	MeanAccuracy float64 `json:"mean_accuracy"`
	MinAccuracy  float64 `json:"min_accuracy"`
	// PerVariant counts served requests by ladder index.
	PerVariant []int `json:"per_variant"`
}

// Served counts the requests that got an answer, on time or late.
func (t *Tally) Served() int { return t.OK + t.Late }

// Failed counts the requests ErrorRate treats as errors: shed, expired,
// faulted, stopped or otherwise. Late responses were served; quota
// rejections are deliberate back-pressure.
func (t *Tally) Failed() int { return t.Shed + t.Expired + t.Faulted + t.Stopped + t.Other }

// ErrorRate is the failed fraction of submitted requests. The loadtest
// CLI gates its exit status on it.
func (t *Tally) ErrorRate() float64 {
	if t.Submitted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Submitted)
}

// ledger accumulates one Tally during a replay.
type ledger struct {
	Tally
	latencies []float64
}

// count adds one outcome to its bucket.
func (l *ledger) count(o Outcome) {
	switch o {
	case OutcomeOK:
		l.OK++
	case OutcomeLate:
		l.Late++
	case OutcomeShed:
		l.Shed++
	case OutcomeExpired:
		l.Expired++
	case OutcomeFaulted:
		l.Faulted++
	case OutcomeStopped:
		l.Stopped++
	case OutcomeRejected:
		l.Rejected++
	default:
		l.Other++
	}
}

// served records one answered request's variant, accuracy and latency.
func (l *ledger) served(resp Response, latency time.Duration) {
	if resp.Variant < len(l.PerVariant) {
		l.PerVariant[resp.Variant]++
	}
	l.MeanAccuracy += resp.Accuracy
	if l.MinAccuracy == 0 || resp.Accuracy < l.MinAccuracy {
		l.MinAccuracy = resp.Accuracy
	}
	l.latencies = append(l.latencies, latency.Seconds())
}

// close turns the sums into the Tally's means and percentiles.
func (l *ledger) close() Tally {
	if n := l.Served(); n > 0 {
		l.MeanAccuracy /= float64(n)
		p50, p95, p99, max := stats.Summary(l.latencies)
		l.P50MS, l.P95MS, l.P99MS, l.MaxMS = p50*1000, p95*1000, p99*1000, max*1000
	}
	return l.Tally
}

// Result is what a submit channel carries: a Response, or a type that
// embeds one (a router's Routed) and so inherits the method.
type Result interface{ Result() Response }

// Result returns the response itself.
func (r Response) Result() Response { return r }

// Replay is the one open-loop load generator every RunLoad shares. Requests
// fire at their scheduled offsets whether or not earlier ones completed —
// the arrival process does not slow down when the service does, which is
// exactly what makes overload visible.
type Replay[R Result] struct {
	// Schedule lists the arrivals in time order.
	Schedule []Arrival
	// Seed seeds the synthetic images: arrival i gets Seed+i.
	Seed int64
	// Deadline is each request's deadline, counted from its scheduled
	// arrival; a request served later counts as Late (0 = none).
	Deadline time.Duration
	// Cooldown keeps the replay running idle after the last response, so
	// control loops can observe recovery (0 = none).
	Cooldown time.Duration
	// Tracer receives the loadtest.replay span every request parents
	// under.
	Tracer *telemetry.Tracer
	// Ladder returns a tenant's ladder: its first rung's input shape sizes
	// the synthetic images, its length the tenant's PerVariant.
	Ladder func(tenant string) []Variant
	// Submit sends arrival i.
	Submit func(ctx context.Context, i int, img *tensor.Tensor, deadline time.Time) (<-chan R, error)
	// Group, when set, also tallies every answered request under a key of
	// its response — a router's serving region, say — in Replayed.Groups.
	Group func(resp R) string
}

// Replayed is the tally of one replay: in total, per tenant, and per
// Group key.
type Replayed struct {
	Total   Tally
	Tenants map[string]Tally
	Groups  map[string]Tally
	Wall    time.Duration
}

// Run replays the schedule and returns once every response has arrived
// and the cooldown has elapsed.
func (p Replay[R]) Run() Replayed {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		total   ledger
		tenants = map[string]*ledger{}
		groups  = map[string]*ledger{}
	)
	for _, a := range p.Schedule {
		if tenants[a.Tenant] == nil {
			n := len(p.Ladder(a.Tenant))
			tenants[a.Tenant] = &ledger{Tally: Tally{PerVariant: make([]int, n)}}
			if n > len(total.PerVariant) {
				total.PerVariant = make([]int, n)
			}
		}
	}
	// record books one request in the total, its tenant's ledger and, once
	// answered under a Group, its group's; r is nil when the submission
	// itself failed.
	record := func(l *ledger, r *R, group string, o Outcome, latency time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		ls := []*ledger{&total, l}
		if r != nil && p.Group != nil {
			if groups[group] == nil {
				groups[group] = &ledger{}
			}
			ls = append(ls, groups[group])
		}
		for _, l := range ls {
			l.Submitted++
			l.count(o)
			if o == OutcomeOK || o == OutcomeLate {
				l.served((*r).Result(), latency)
			}
		}
	}

	ctx, finish := p.Tracer.StartSpan(context.Background(), "loadtest.replay")
	start := time.Now()
	for i, a := range p.Schedule {
		shape := p.Ladder(a.Tenant)[0].Net.Input
		img := SyntheticImage(shape.C, shape.H, shape.W, p.Seed+int64(i))
		at := start.Add(a.At)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		var deadline time.Time
		if p.Deadline > 0 {
			deadline = at.Add(p.Deadline)
		}
		l := tenants[a.Tenant]
		ch, err := p.Submit(ctx, i, img, deadline)
		if err != nil {
			record(l, nil, "", Classify(err), 0)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := <-ch
			latency := time.Since(at)
			o := Classify(r.Result().Err)
			if o == OutcomeOK && p.Deadline > 0 && latency > p.Deadline {
				o = OutcomeLate
			}
			var group string
			if p.Group != nil {
				group = p.Group(r)
			}
			record(l, &r, group, o, latency)
		}()
	}
	wg.Wait()
	finish(telemetry.L("submitted", total.Submitted))
	if p.Cooldown > 0 {
		time.Sleep(p.Cooldown)
	}
	out := Replayed{Total: total.close(), Tenants: map[string]Tally{}, Groups: map[string]Tally{}, Wall: time.Since(start)}
	for name, l := range tenants {
		out.Tenants[name] = l.close()
	}
	for key, l := range groups {
		out.Groups[key] = l.close()
	}
	return out
}

// LoadConfig parameterizes one open-loop replay of a workload trace
// against a gateway.
type LoadConfig struct {
	// Trace supplies per-window request counts (typically a compressed
	// day: the whole trace replays in Duration).
	Trace *workload.Trace
	// Duration is the wall-clock length of the replay.
	Duration time.Duration
	// Seed drives the Poisson arrival expansion within windows.
	Seed int64
	// Deadline is the per-request deadline, counted from the scheduled
	// arrival; it also defines Late (0 = gateway default, nothing late).
	Deadline time.Duration
	// Cooldown keeps the gateway running idle after the last arrival so
	// the controller can observe recovery and restore accuracy (0 = none).
	Cooldown time.Duration
}

// Report summarizes one load test: the outcome tally with end-to-end
// latency percentiles and the accuracy proxy actually delivered
// (request-weighted over the variants each request was served at), plus
// throughput and the gateway's own counters.
type Report struct {
	Tally
	// Retries and BreakerOpens snapshot the gateway's resilience counters
	// at the end of the run.
	Retries      int64 `json:"retries"`
	BreakerOpens int64 `json:"breaker_opens"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"` // served requests per wall second

	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`

	// Stages attributes latency to the serving pipeline's stages (queue
	// wait, batch assembly, nn forward) over the whole run, aggregated
	// across tenants; TenantStages keys the same attribution by tenant
	// label (single-tenant runs carry one DefaultTenant entry).
	Stages       *Stages           `json:"stages,omitempty"`
	TenantStages map[string]Stages `json:"tenant_stages,omitempty"`
}

// RunLoad replays the trace open-loop against the gateway as
// DefaultTenant. It returns after every response has arrived and the
// cooldown has elapsed. The caller owns gateway Start/Stop.
func RunLoad(g *Gateway, cfg LoadConfig) (*Report, error) {
	if cfg.Trace == nil || len(cfg.Trace.Windows) == 0 {
		return nil, fmt.Errorf("serving: load config needs a trace")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("serving: load config needs a positive duration")
	}
	windowSec := cfg.Duration.Seconds() / float64(len(cfg.Trace.Windows))
	run := Replay[Response]{
		Schedule: Arrivals(workload.ArrivalTimes(cfg.Trace, windowSec, cfg.Seed), DefaultTenant),
		Seed:     cfg.Seed,
		Deadline: cfg.Deadline,
		Cooldown: cfg.Cooldown,
		Tracer:   g.cfg.Tracer,
		Ladder:   g.Ladder,
		Submit: func(ctx context.Context, _ int, img *tensor.Tensor, deadline time.Time) (<-chan Response, error) {
			return g.Submit(ctx, img, deadline)
		},
	}.Run()

	rep := &Report{Tally: run.Total, WallSeconds: run.Wall.Seconds()}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.Served()) / rep.WallSeconds
	}
	st := g.Stats()
	rep.Degrades, rep.Restores = st.Degrades, st.Restores
	rep.Retries, rep.BreakerOpens = st.Retries, st.BreakerOpens
	stages := g.StageStats()
	rep.Stages = &stages
	rep.TenantStages = g.StageStatsByTenant()
	return rep, nil
}

// String renders the report for the CLI.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests : %d submitted, %d ok, %d late, %d shed, %d expired, %d faulted, %d stopped, %d rejected, %d other\n",
		r.Submitted, r.OK, r.Late, r.Shed, r.Expired, r.Faulted, r.Stopped, r.Rejected, r.Other)
	fmt.Fprintf(&b, "latency  : p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms\n",
		r.P50MS, r.P95MS, r.P99MS, r.MaxMS)
	fmt.Fprintf(&b, "rate     : %.0f req/s served over %.2f s\n", r.Throughput, r.WallSeconds)
	fmt.Fprintf(&b, "accuracy : %.1f%% mean proxy, %.1f%% worst variant served\n",
		r.MeanAccuracy*100, r.MinAccuracy*100)
	fmt.Fprintf(&b, "ladder   : %v per-variant, %d degradations, %d restorations\n",
		r.PerVariant, r.Degrades, r.Restores)
	if r.Faulted > 0 || r.Retries > 0 || r.BreakerOpens > 0 {
		fmt.Fprintf(&b, "faults   : %d retries, %d breaker opens, %.1f%% error rate\n",
			r.Retries, r.BreakerOpens, r.ErrorRate()*100)
	}
	if s := r.Stages; s != nil {
		fmt.Fprintf(&b, "stages   : queue p99 %.1f ms, assembly p99 %.1f ms, forward p99 %.1f ms\n",
			s.QueueWait.P99MS, s.BatchAssembly.P99MS, s.NNForward.P99MS)
	}
	return b.String()
}
