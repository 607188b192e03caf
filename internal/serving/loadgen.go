package serving

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
	"ccperf/internal/workload"
)

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
	// Deadline is the per-request deadline offset (0 = gateway default).
	Deadline time.Duration
	// Cooldown keeps the gateway running idle after the last arrival so
	// the controller can observe recovery and restore accuracy (0 = none).
	Cooldown time.Duration
}

// Report summarizes one load test: admission outcomes, end-to-end latency
// percentiles, throughput, and the accuracy proxy actually delivered
// (request-weighted over the variants each request was served at).
type Report struct {
	Submitted int `json:"submitted"`
	OK        int `json:"ok"`
	Shed      int `json:"shed"`
	Expired   int `json:"expired"`
	// Faulted counts requests failed by fault injection after exhausting
	// their retries; Retries and BreakerOpens snapshot the gateway's
	// resilience counters at the end of the run.
	Faulted      int   `json:"faulted"`
	Retries      int64 `json:"retries"`
	BreakerOpens int64 `json:"breaker_opens"`
	// Stopped, Rejected and Other complete the outcome buckets (see
	// Classify): Submitted = OK+Shed+Expired+Faulted+Stopped+Rejected+Other.
	Stopped  int `json:"stopped"`
	Rejected int `json:"rejected"`
	Other    int `json:"other"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"` // served requests per wall second

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

	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`

	// Stages attributes latency to the serving pipeline's stages (queue
	// wait, batch assembly, nn forward) over the whole run, aggregated
	// across tenants; TenantStages keys the same attribution by tenant
	// label (single-tenant runs carry one DefaultTenant entry).
	Stages       *Stages           `json:"stages,omitempty"`
	TenantStages map[string]Stages `json:"tenant_stages,omitempty"`
}

// RunLoad replays the trace open-loop: arrivals fire at their scheduled
// offsets whether or not earlier requests completed (the arrival process
// does not slow down when the service does — which is exactly what makes
// overload visible). It returns after every response has arrived and the
// cooldown has elapsed. The caller owns gateway Start/Stop.
func RunLoad(g *Gateway, cfg LoadConfig) (*Report, error) {
	if cfg.Trace == nil || len(cfg.Trace.Windows) == 0 {
		return nil, fmt.Errorf("serving: load config needs a trace")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("serving: load config needs a positive duration")
	}
	windowSec := cfg.Duration.Seconds() / float64(len(cfg.Trace.Windows))
	arrivals := workload.ArrivalTimes(cfg.Trace, windowSec, cfg.Seed)

	ladder := g.tenants[0].Ladder
	shape := ladder[0].Net.Input
	rep := &Report{PerVariant: make([]int, len(ladder))}
	var mu sync.Mutex
	latencies := make([]float64, 0, len(arrivals))
	var wg sync.WaitGroup

	// One replay-root span per run: every request span parents under it,
	// so a trace dump of a loadtest is a single tree.
	ctx, finishReplay := g.cfg.Tracer.StartSpan(context.Background(), "loadtest.replay")
	start := time.Now()
	for i, at := range arrivals {
		offset := time.Duration(at * float64(time.Second))
		if d := time.Until(start.Add(offset)); d > 0 {
			time.Sleep(d)
		}
		img := SyntheticImage(shape.C, shape.H, shape.W, cfg.Seed+int64(i))
		var deadline time.Time
		if cfg.Deadline > 0 {
			deadline = time.Now().Add(cfg.Deadline)
		}
		rep.Submitted++
		ch, err := g.Submit(ctx, img, deadline)
		if err != nil {
			mu.Lock()
			rep.count(err)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := <-ch
			mu.Lock()
			defer mu.Unlock()
			rep.count(resp.Err)
			if resp.Err != nil {
				return
			}
			rep.PerVariant[resp.Variant]++
			rep.MeanAccuracy += resp.Accuracy
			if rep.MinAccuracy == 0 || resp.Accuracy < rep.MinAccuracy {
				rep.MinAccuracy = resp.Accuracy
			}
			latencies = append(latencies, resp.Total.Seconds())
		}()
	}
	wg.Wait()
	finishReplay(telemetry.L("submitted", rep.Submitted))
	if cfg.Cooldown > 0 {
		time.Sleep(cfg.Cooldown)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.OK > 0 {
		rep.MeanAccuracy /= float64(rep.OK)
		rep.Throughput = float64(rep.OK) / rep.WallSeconds
		p50, p95, p99, max := stats.Summary(latencies)
		rep.P50MS, rep.P95MS, rep.P99MS, rep.MaxMS = p50*1000, p95*1000, p99*1000, max*1000
	}
	st := g.Stats()
	rep.Degrades, rep.Restores = st.Degrades, st.Restores
	rep.Retries, rep.BreakerOpens = st.Retries, st.BreakerOpens
	stages := g.StageStats()
	rep.Stages = &stages
	rep.TenantStages = g.StageStatsByTenant()
	return rep, nil
}

// count adds one submission or response result to its outcome bucket.
func (r *Report) count(err error) {
	switch Classify(err) {
	case OutcomeOK:
		r.OK++
	case OutcomeShed:
		r.Shed++
	case OutcomeExpired:
		r.Expired++
	case OutcomeFaulted:
		r.Faulted++
	case OutcomeStopped:
		r.Stopped++
	case OutcomeRejected:
		r.Rejected++
	default:
		r.Other++
	}
}

// ErrorRate is the fraction of submitted requests that failed — shed,
// expired, faulted, stopped or otherwise; quota rejections are deliberate
// back-pressure and do not count. The loadtest CLI gates its exit status
// on this.
func (r *Report) ErrorRate() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Shed+r.Expired+r.Faulted+r.Stopped+r.Other) / float64(r.Submitted)
}

// String renders the report for the CLI.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests : %d submitted, %d ok, %d shed, %d expired, %d faulted, %d stopped, %d rejected, %d other\n",
		r.Submitted, r.OK, r.Shed, r.Expired, r.Faulted, r.Stopped, r.Rejected, r.Other)
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
