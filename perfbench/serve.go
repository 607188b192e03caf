package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ccperf"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
	"ccperf/internal/tenant"
	"ccperf/internal/tensor"
)

// submitter is the only serving call the benchmark makes. Both the
// single-tenant serving.Gateway and the multi-tenant tenant.Mux have it,
// so the benchmark keeps working when one is folded into the other.
type submitter interface {
	SubmitAs(ctx context.Context, tenant string, img *tensor.Tensor, deadline time.Time) (<-chan serving.Response, error)
}

// serveWorkload is an open-loop serving workload: Poisson arrivals at a
// fixed nominal rate (about a quarter of the server's capacity on the
// reference machine) and a fixed overload rate (about three times it).
// The rates are constants so that a faster server meets the same offered
// load, not a higher one.
type serveWorkload struct {
	layer       string    // per-layer metric prefix of the front end
	tenants     []string  // SubmitAs tenant names, chosen 1:1 per request
	weights     []float64 // scheduling weights, for the fairness index
	ratio       float64   // prune ratio of the one ladder rung served
	nominalRPS  float64
	overloadRPS float64
	open        func() (*ccperf.Stack, submitter, error)
}

var serveDense = serveWorkload{
	layer:       "serving",
	tenants:     []string{serving.DefaultTenant},
	weights:     []float64{1},
	ratio:       0,
	nominalRPS:  170,
	overloadRPS: 2000,
	open: func() (*ccperf.Stack, submitter, error) {
		st, err := ccperf.Open(ccperf.Caffenet, ccperf.WithLadder(0), ccperf.WithReplicas(1), ccperf.WithQueueCap(queueCap))
		if err != nil {
			return nil, nil, err
		}
		return st, st.Gateway(), nil
	},
}

var serveTenantsPruned = serveWorkload{
	layer:       "tenant",
	tenants:     []string{"heavy", "light"},
	weights:     []float64{2, 1},
	ratio:       0.9,
	nominalRPS:  550,
	overloadRPS: 6600,
	open: func() (*ccperf.Stack, submitter, error) {
		st, err := ccperf.Open(ccperf.Caffenet, ccperf.WithReplicas(1), ccperf.WithTenants([]tenant.Spec{
			{Name: "heavy", Ladder: []float64{0.9}, Weight: 2, QueueCap: queueCap},
			{Name: "light", Ladder: []float64{0.9}, Weight: 1, QueueCap: queueCap},
		}))
		if err != nil {
			return nil, nil, err
		}
		return st, st.TenantMux(), nil
	},
}

// Phase shares of the measured time; the length of one nominal+overload
// cycle; the share of an overload phase skipped before counting
// throughput, while the admission queue fills; and the number of
// responses a throughput sample spans (eight full batches).
const (
	warmShare     = 0.05
	nominalShare  = 0.75
	overloadShare = 0.20
	cycleSeconds  = 8
	fillSkip      = 0.20
	rateWindow    = 64
)

const (
	// queueCap is the admission queue of the gateway and of each tenant:
	// deep enough that a host stall of about a second in a nominal phase
	// queues requests rather than shedding them, shallow enough that an
	// overload phase's queue fills within its first fifth.
	queueCap = 256
	// setupReps Open+Start cycles give setup_s its median; one takes a
	// few milliseconds.
	setupReps = 25
	// The image pool: its size, the most images of one reference class,
	// and the most candidates drawn to fill it (see newImagePool).
	poolImages   = 64
	poolPerClass = 8
	poolDraws    = 1000
	// drainTimeout bounds the wait for responses after a phase's last
	// arrival; a server that loses requests fails the run instead of
	// hanging it.
	drainTimeout = 30 * time.Second
)

// outcome is the one bucket each submitted request lands in. The zero
// value marks a request that never got an outcome, which breaks the
// accounting identity.
type outcome uint8

const (
	outUnset outcome = iota
	outOK
	outWrong
	outShed
	outExpired
	outFaulted
	outStopped
	outOther
	nOutcomes
)

var outcomeNames = [nOutcomes]string{"unset", "ok", "wrong_class", "shed", "expired", "faulted", "stopped", "other"}

func classify(err error) outcome {
	switch {
	case errors.Is(err, serving.ErrOverloaded):
		return outShed
	case errors.Is(err, serving.ErrExpired):
		return outExpired
	case errors.Is(err, serving.ErrFaulted):
		return outFaulted
	case errors.Is(err, serving.ErrStopped):
		return outStopped
	}
	return outOther
}

// arrival is one scheduled request: when it is due, for which tenant,
// with which image of the pool.
type arrival struct {
	at     time.Duration
	tenant int
	img    int
}

// poisson draws arrivals at the given rate for dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, tenants, imgs int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, tenant: rng.Intn(tenants), img: rng.Intn(imgs)})
	}
}

// record is what the load generator saw of one request, as offsets from
// its phase's origin. send and ret bracket SubmitAs. done is when the
// server finished the request: send plus the response's Total (admission
// to completion, taken by the server), or ret for a refused request.
type record struct {
	sched, send, ret, done time.Duration
	tenant                 int
	resp                   serving.Response
	out                    outcome
}

// latency is timed from the scheduled arrival, so generator lag counts
// against the server, to the server's completion.
func (r *record) latency() time.Duration { return r.done - r.sched }

// phase is one run of a schedule against the server.
type phase struct {
	name     string
	overload bool
	dur      time.Duration
	arr      []arrival
	recs     []record
	elapsed  time.Duration
}

// tally counts outcomes and checks the accounting identity: every
// scheduled request is in exactly one bucket.
func (p *phase) tally() ([nOutcomes]int, error) {
	var n [nOutcomes]int
	for i := range p.recs {
		n[p.recs[i].out]++
	}
	sum := 0
	for o := outOK; o < nOutcomes; o++ {
		sum += n[o]
	}
	if sum != len(p.arr) || n[outUnset] != 0 {
		return n, fmt.Errorf("phase %s: %d outcomes for %d requests (%d unset)", p.name, sum, len(p.arr), n[outUnset])
	}
	return n, nil
}

// imagePool is the seeded set of request images and each one's class on
// the served variant, computed by a reference forward pass.
type imagePool struct {
	imgs []*tensor.Tensor
	ref  []int
	net  *nn.Net
}

// newImagePool draws the images and builds the reference variant the same
// way Open builds a ladder rung, independently of the server under test.
// An untrained net sends most images to one class, which would let a
// wrong answer pass the class check by chance; so the pool takes at most
// poolPerClass images of each reference class from up to poolDraws
// candidates, and fills any remainder with the last candidates drawn.
func newImagePool(rng *rand.Rand, ratio float64) (*imagePool, error) {
	degrees, err := ccperf.LadderDegrees([]float64{ratio})
	if err != nil {
		return nil, err
	}
	ladder, err := serving.BuildLadder(context.Background(), serving.TinyNet, degrees, prune.L1Filter, nil)
	if err != nil {
		return nil, err
	}
	p := &imagePool{net: ladder[0].Net}
	ws := nn.NewWorkspace()
	perClass := map[int]int{}
	var spare []*tensor.Tensor
	var spareRef []int
	for i := 0; i < poolDraws && len(p.imgs) < poolImages; i++ {
		img := drawImage(rng)
		class := p.net.Forward(img, ws).ArgMax()
		if perClass[class] < poolPerClass {
			perClass[class]++
			p.imgs, p.ref = append(p.imgs, img), append(p.ref, class)
		} else {
			spare, spareRef = append(spare, img), append(spareRef, class)
		}
	}
	for k := len(spare) - 1; len(p.imgs) < poolImages; k-- {
		p.imgs, p.ref = append(p.imgs, spare[k]), append(p.ref, spareRef[k])
	}
	return p, nil
}

// drawImage makes one CHW image: a random per-channel level, a random
// plane wave and pixel noise.
func drawImage(rng *rand.Rand) *tensor.Tensor {
	s := serving.TinyShape
	img := tensor.New(s.C, s.H, s.W)
	fx, fy, phase := rng.Float64()*0.8, rng.Float64()*0.8, rng.Float64()*2*math.Pi
	for c := 0; c < s.C; c++ {
		level := 2 * rng.NormFloat64()
		for y := 0; y < s.H; y++ {
			for x := 0; x < s.W; x++ {
				v := level + math.Sin(fx*float64(x)+fy*float64(y)+phase) + 0.3*rng.NormFloat64()
				img.Data[(c*s.H+y)*s.W+x] = float32(v)
			}
		}
	}
	return img
}

// run replays the phase's schedule open loop from one goroutine, sleeping
// until each arrival is due and never sending early. Responses are
// collected only after the last arrival: each SubmitAs channel holds its
// one response, so while the phase runs no benchmark goroutine but the
// generator competes with the server for a processor, and no response
// waits on the benchmark's own wake-up to be timed.
func (p *phase) run(sub submitter, w *serveWorkload, pool *imagePool) error {
	ctx := context.Background()
	p.recs = make([]record, len(p.arr))
	pending := make([]<-chan serving.Response, len(p.arr))
	origin := time.Now()
	for i := range p.arr {
		a, r := &p.arr[i], &p.recs[i]
		r.sched, r.tenant = a.at, a.tenant
		waitUntil(origin, a.at)
		r.send = time.Since(origin)
		ch, err := sub.SubmitAs(ctx, w.tenants[a.tenant], pool.imgs[a.img], time.Time{})
		r.ret = time.Since(origin)
		if err != nil {
			r.done = r.ret
			r.out = classify(err)
			continue
		}
		pending[i] = ch
	}
	timeout := time.NewTimer(drainTimeout)
	defer timeout.Stop()
	for i, ch := range pending {
		if ch == nil {
			continue
		}
		r := &p.recs[i]
		select {
		case resp := <-ch:
			r.resp = resp
			r.done = r.send + resp.Total
			switch {
			case resp.Err != nil:
				r.out = classify(resp.Err)
			case resp.Class != pool.ref[p.arr[i].img] || resp.Variant != 0:
				r.out = outWrong
			default:
				r.out = outOK
			}
		case <-timeout.C:
			return fmt.Errorf("phase %s: responses still missing %v after the last arrival", p.name, drainTimeout)
		}
	}
	p.elapsed = time.Since(origin)
	return nil
}

// waitUntil returns once the offset at from origin has passed.
func waitUntil(origin time.Time, at time.Duration) {
	for d := at - time.Since(origin); d > 0; d = at - time.Since(origin) {
		preciseSleep(d)
	}
}

// latenciesMs returns every request's latency in ms, with failed and
// refused requests as +Inf so they count beyond every percentile.
func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.recs))
	for i := range p.recs {
		if p.recs[i].out == outOK {
			out[i] = ms(p.recs[i].latency())
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// servedInWindow counts correct responses per tenant that arrived after
// the queue-fill transient and before the last scheduled arrival.
func (p *phase) servedInWindow(tenants int) []float64 {
	from := time.Duration(fillSkip * float64(p.dur))
	served := make([]float64, tenants)
	for i := range p.recs {
		r := &p.recs[i]
		if r.out == outOK && r.done >= from && r.done <= p.dur {
			served[r.tenant]++
		}
	}
	return served
}

// windowRates are the phase's throughput samples: the rates of correct
// responses after the queue-fill transient (see windowRates in stats.go).
func (p *phase) windowRates() []float64 {
	from := time.Duration(fillSkip * float64(p.dur))
	var ts []time.Duration
	for i := range p.recs {
		r := &p.recs[i]
		if r.out == outOK && r.done >= from && r.done <= p.dur {
			ts = append(ts, r.done)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return windowRates(ts, rateWindow)
}

// infMs stands in for an infinite latency percentile (a failed request
// landed on it), since JSON has no infinity.
const infMs = 1e9

func finiteMs(x float64) float64 {
	if math.IsInf(x, 1) {
		return infMs
	}
	return x
}

// serveResult is one measured pass of a workload: its nominal and
// overload phases, in the order they ran.
type serveResult struct {
	nominal, overload   []*phase
	p50, p90, p99, peak float64
}

// pass runs a warm-up phase, then cycles of a nominal and an overload
// phase, over schedules drawn from rng; each phase starts once the
// previous one has fully drained. Alternating the two spreads both
// measurements over the whole pass, so a drift of the host's speed during
// it weighs on each alike. label prefixes the phase names in the output.
func (w *serveWorkload) pass(sub submitter, pool *imagePool, rng *rand.Rand, label string, seconds float64, sink *report) (*serveResult, error) {
	cycles := max(1, int(seconds/cycleSeconds))
	mk := func(name string, overload bool, share, rate float64) *phase {
		d := time.Duration(share * seconds * float64(time.Second))
		return &phase{name: label + name, overload: overload, dur: d, arr: poisson(rng, rate, d, len(w.tenants), poolImages)}
	}
	res := &serveResult{}
	phases := []*phase{mk("warmup", false, warmShare, w.nominalRPS)}
	for c := 1; c <= cycles; c++ {
		n := mk(fmt.Sprintf("nominal%d", c), false, nominalShare/float64(cycles), w.nominalRPS)
		o := mk(fmt.Sprintf("overload%d", c), true, overloadShare/float64(cycles), w.overloadRPS)
		res.nominal, res.overload = append(res.nominal, n), append(res.overload, o)
		phases = append(phases, n, o)
	}
	for i, p := range phases {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := p.run(sub, w, pool); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		sink.info("gc."+p.name, fmt.Sprintf("%d cycles, %.3f ms paused, %.1f MB allocated", m1.NumGC-m0.NumGC, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6))
		n, err := p.tally()
		sink.accounting(p.name, n)
		if err != nil {
			return nil, err
		}
		if n[outWrong] > 0 {
			sink.incorrect(fmt.Sprintf("phase %s: %d responses with a class other than the reference forward's", p.name, n[outWrong]))
		}
		if i > 0 {
			sink.attempted += len(p.arr)
			failed := len(p.arr) - n[outOK]
			if p.overload {
				failed -= n[outShed] // refusing excess load is the overload phase's purpose
			}
			sink.failed += failed
		}
	}
	var lat, rates []float64
	for _, p := range res.nominal {
		lat = append(lat, p.latenciesMs()...)
	}
	for _, p := range res.overload {
		rates = append(rates, p.windowRates()...)
	}
	res.p50 = finiteMs(percentile(lat, 50))
	res.p90 = finiteMs(percentile(lat, 90))
	res.p99 = finiteMs(percentile(lat, 99))
	res.peak = median(rates)
	return res, nil
}

// runServe measures a serving workload: set-up time over several
// Open+Start cycles, then one pass. Traced, the pass is split into
// quarters, and spans are built from the middle two once they have run;
// the tracing overhead compares those with the outer two, so that a drift
// of the machine's speed during the run cancels out of it. Every quarter
// takes the same timestamps, so on these workloads the overhead shows
// only how far quarters of one run differ. The nn and tensor replays
// follow once the server is stopped.
func runServe(w *serveWorkload, seed int64, seconds float64, traced bool, sink *report) error {
	rng := rand.New(rand.NewSource(seed))
	pool, err := newImagePool(rng, w.ratio)
	if err != nil {
		return err
	}
	var setups []float64
	var st *ccperf.Stack
	var sub submitter
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.Close()
		}
		t0 := time.Now()
		st, sub, err = w.open()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		st.Start()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.Close()
	sink.set("setup_s", median(setups))
	sink.info("served_variant", fmt.Sprintf("ratio %g, reference classes over %d images: %d distinct", w.ratio, poolImages, distinct(pool.ref)))

	if !traced {
		res, err := w.pass(sub, pool, rng, "", seconds, sink)
		if err != nil {
			return err
		}
		w.endToEnd([]*serveResult{res}, sink)
		return nil
	}
	var plain, withSpans []*serveResult
	for i, on := range []bool{false, true, true, false} {
		res, err := w.pass(sub, pool, rng, fmt.Sprintf("q%d.", i+1), seconds/4, sink)
		if err != nil {
			return err
		}
		if on {
			withSpans = append(withSpans, res)
		} else {
			plain = append(plain, res)
		}
	}
	w.endToEnd(plain, sink)
	avg := func(rs []*serveResult, f func(*serveResult) float64) float64 {
		var s float64
		for _, r := range rs {
			s += f(r)
		}
		return s / float64(len(rs))
	}
	p50 := func(r *serveResult) float64 { return r.p50 }
	p90 := func(r *serveResult) float64 { return r.p90 }
	peak := func(r *serveResult) float64 { return r.peak }
	sink.overhead(avg(plain, p50), avg(withSpans, p50), avg(plain, p90), avg(withSpans, p90), avg(plain, peak), avg(withSpans, peak))
	tr := &trace{}
	w.layers(withSpans, tr, sink)
	st.Close()
	if err := replayNet(pool, tr, sink); err != nil {
		return err
	}
	sink.traceOut = tr
	return nil
}

func distinct(xs []int) int {
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// served sums the overload phases' correct responses per tenant, and
// returns them with Jain's index of served/weight.
func (w *serveWorkload) served(rs []*serveResult) ([]float64, float64) {
	served := make([]float64, len(w.tenants))
	for _, r := range rs {
		for _, p := range r.overload {
			for i, n := range p.servedInWindow(len(w.tenants)) {
				served[i] += n
			}
		}
	}
	shares := make([]float64, len(served))
	for i := range served {
		shares[i] = served[i] / w.weights[i]
	}
	return served, jain(shares)
}

// endToEnd reports the user-visible numbers (averaged over the passes
// given) and the extras the end-to-end set cannot carry: throughput, the
// tail, the nominal error rate and the fairness index.
func (w *serveWorkload) endToEnd(rs []*serveResult, sink *report) {
	var p50, p90, p99, peak float64
	attempted, notOK := 0, 0
	for _, r := range rs {
		p50 += r.p50 / float64(len(rs))
		p90 += r.p90 / float64(len(rs))
		p99 += r.p99 / float64(len(rs))
		peak += r.peak / float64(len(rs))
		for _, p := range r.nominal {
			n, _ := p.tally()
			attempted += len(p.arr)
			notOK += len(p.arr) - n[outOK]
		}
	}
	sink.set("p50_ms", p50)
	sink.info("peak_rps", fmt.Sprintf("%.6g responses/s (overload; not gated, see README.md)", peak))
	sink.info("tail", fmt.Sprintf("p90 %.6g ms, p99 %.6g ms (nominal; not gated, see README.md)", p90, p99))
	sink.info("error_rate", fmt.Sprintf("%.6g (nominal, %d of %d requests not ok)", float64(notOK)/float64(attempted), notOK, attempted))
	sink.info("nominal_samples", fmt.Sprintf("%d at %g req/s offered", attempted, w.nominalRPS))
	_, fair := w.served(rs)
	sink.info("fairness", fmt.Sprintf("%.6g (Jain's index of served/weight over %d tenants, overload)", fair, len(w.tenants)))
}

// requestSpans turns one traced record into its span tree: the request
// from scheduled arrival to completion, the generator's lateness, the
// SubmitAs call, and, for an admitted request, the server-reported queue
// wait and service time placed from admission (taken as the send).
func requestSpans(tr *trace, root int32, layer string, r *record) {
	req := tr.add("request", root, r.sched, r.done)
	tr.add("loadgen.late", req, r.sched, r.send)
	tr.add(layer+".submit", req, r.send, r.ret)
	if r.resp.Total > 0 {
		tr.add(layer+".queue", req, r.send, r.send+r.resp.Queue)
		tr.add(layer+".service", req, r.send+r.resp.Queue, r.done)
	}
}

// layers derives the front end's per-layer numbers from the traced
// passes: span durations of the nominal phases, response fields, and the
// overload phases' shedding and per-tenant service.
func (w *serveWorkload) layers(rs []*serveResult, tr *trace, sink *report) {
	var late, submit, queue, service, batches []float64
	var served, retried, shed, overloaded float64
	for _, r := range rs {
		for _, p := range append(append([]*phase(nil), r.nominal...), r.overload...) {
			root := tr.add("phase."+p.name, -1, 0, p.elapsed)
			for j := range p.recs {
				requestSpans(tr, root, w.layer, &p.recs[j])
				rec := &p.recs[j]
				if rec.out != outOK {
					continue
				}
				served++
				if rec.resp.Attempts > 1 {
					retried++
				}
				if !p.overload {
					batches = append(batches, float64(rec.resp.Batch))
				}
			}
			if !p.overload {
				late = append(late, tr.durationsMs(root, "loadgen.late")...)
				submit = append(submit, tr.durationsMs(root, w.layer+".submit")...)
				queue = append(queue, tr.durationsMs(root, w.layer+".queue")...)
				service = append(service, tr.durationsMs(root, w.layer+".service")...)
			}
		}
		for _, p := range r.overload {
			n, _ := p.tally()
			shed += float64(n[outShed])
			overloaded += float64(len(p.arr))
		}
	}
	sink.set("loadgen.late_p50_ms", percentile(late, 50))
	sink.set("loadgen.late_p99_ms", percentile(late, 99))
	sink.set(w.layer+".submit_us", 1000*median(submit))
	sink.set(w.layer+".queue_p50_ms", percentile(queue, 50))
	sink.set(w.layer+".queue_p99_ms", percentile(queue, 99))
	sink.set(w.layer+".service_ms", median(service))
	sink.set(w.layer+".batch_mean", mean(batches))
	sink.set(w.layer+".retry_ratio", retried/served)
	sink.set(w.layer+".shed_ratio", shed/overloaded)
	if len(w.tenants) > 1 {
		s, fair := w.served(rs)
		sink.set("tenant.served_ratio", s[0]/s[1])
		sink.set("tenant.fairness", fair)
	}
}
