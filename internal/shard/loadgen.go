package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/fault"
	"ccperf/internal/serving"
	"ccperf/internal/tensor"
	"ccperf/internal/workload"
)

// BuildFleet constructs one gateway per shard from the base config,
// placing shards round-robin across the regions and wiring each
// gateway's Injector through sched.ForRegion so region-scoped faults
// reach the right shards' replicas. The base config's Ladder is shared —
// nets are read-only during forward, so N gateways over one ladder cost
// one ladder's memory. The caller owns Start/Stop of the returned
// gateways.
func BuildFleet(base serving.Config, shards int, regions []cloud.Region, sched *fault.Schedule) ([]Shard, error) {
	if shards <= 0 {
		return nil, errors.New("shard: fleet needs at least one shard")
	}
	if len(regions) == 0 {
		return nil, errors.New("shard: fleet needs at least one region")
	}
	out := make([]Shard, shards)
	for i := range out {
		region := regions[i%len(regions)].Name
		cfg := base
		if sched != nil {
			cfg.Injector = sched.ForRegion(region)
		}
		gw, err := serving.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		out[i] = Shard{Gateway: gw, Region: region}
	}
	return out, nil
}

// LoadConfig parameterizes one open-loop sharded replay. Arrivals come
// either from Shapes (Total arrivals over Duration through the composed
// intensity, workload.ShapedArrivals) or, when Shapes is nil and Trace is
// set, from the trace's window counts — both seed-deterministic, so a
// replay under a fault schedule is reproducible bit for bit.
type LoadConfig struct {
	// Total is the arrival count when Shapes drives the replay.
	Total int64
	// Shapes composes the arrival intensity (nil with Trace set falls
	// back to trace expansion; nil with Total set means uniform).
	Shapes []workload.Shape
	// Trace is the alternative per-window arrival source.
	Trace *workload.Trace
	// Duration is the wall-clock replay length.
	Duration time.Duration
	// Seed drives arrivals, origin assignment and request keys.
	Seed int64
	// Deadline is the per-request deadline offset; it also defines
	// on-time: an OK response slower than Deadline (e.g. by failover RTT)
	// is served but late (0 = no deadline, everything OK is on-time).
	Deadline time.Duration
	// Cooldown keeps observing after the last arrival (0 = none).
	Cooldown time.Duration
	// OriginWeights skews request origins across the router's regions in
	// Router.Regions() order (nil = uniform); OriginCorr is the Markov
	// stickiness of consecutive origins (workload.AssignRegions).
	OriginWeights []float64
	OriginCorr    float64
	// Schedule is consulted for cost accounting (spot-spike price
	// integrals) and outage bookkeeping in the report; injection itself
	// is wired into the gateways (BuildFleet). Nil = fault-free pricing.
	Schedule *fault.Schedule
	// Instance prices the fleet (nil = p2.xlarge, the paper's K80 box).
	Instance *cloud.Instance
}

// RegionReport is one region's slice of the replay: its shards' outcomes,
// its rental bill under regional pricing and any spot spikes, and the
// cost-accuracy point it contributes to the global frontier.
type RegionReport struct {
	Region string `json:"region"`
	Shards int    `json:"shards"`
	// OK / Late / Errors partition the responses served by this region's
	// shards: on-time, past-deadline, and failed.
	OK     int `json:"ok"`
	Late   int `json:"late"`
	Errors int `json:"errors"`
	// ReplicaSeconds is the region's fleet-time integral; SpotMean the
	// time-averaged price multiplier over the run (1 without spikes);
	// DownSeconds how long the schedule held the region dark.
	ReplicaSeconds float64 `json:"replica_seconds"`
	SpotMean       float64 `json:"spot_mean"`
	DownSeconds    float64 `json:"down_seconds"`
	// CostUSD = ReplicaSeconds × regional $/s × SpotMean; CostPerMillion
	// is that bill normalized per million on-time images — the paper's
	// cost-accuracy axis generalized to a region under faults.
	CostUSD        float64 `json:"cost_usd"`
	CostPerMillion float64 `json:"cost_per_million_on_time"`
	// MeanAccuracy is the request-weighted accuracy proxy of the
	// region's OK responses.
	MeanAccuracy float64 `json:"mean_accuracy"`
}

// Report summarizes one sharded replay. Its Tally's OK and Late split the
// served requests at LoadConfig.Deadline, so OK is the on-time count the
// cost columns are normalized by.
type Report struct {
	serving.Tally

	// Rerouted counts submissions that spilled past their home shard;
	// Failovers responses resubmitted on another shard after a failure;
	// RouterShed submissions rejected because no shard could take them.
	Rerouted   int64 `json:"rerouted"`
	Failovers  int64 `json:"failovers"`
	RouterShed int64 `json:"router_shed"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"`

	// CostUSD and CostPerMillion aggregate the regional bills into the
	// global $/million-on-time-images point.
	CostUSD        float64 `json:"cost_usd"`
	CostPerMillion float64 `json:"cost_per_million_on_time"`

	Regions []RegionReport `json:"regions"`
}

// MarshalJSON writes the Tally's Other under the key sharded reports have
// always used, other_errors.
func (r Report) MarshalJSON() ([]byte, error) {
	type plain Report
	return json.Marshal(struct {
		plain
		Other int `json:"other_errors"`
		// Mask shadows the Tally's own "other" key; it is always empty.
		Mask int `json:"other,omitempty"`
	}{plain: plain(r), Other: r.Other})
}

// String renders the one-line summary the CLI prints.
func (r *Report) String() string {
	return fmt.Sprintf(
		"submitted=%d ok=%d late=%d shed=%d expired=%d faulted=%d stopped=%d rejected=%d other=%d rerouted=%d failover=%d err=%.2f%% p50=%.1fms p99=%.1fms acc=%.4f $%.4f ($%.2f/M on-time)",
		r.Submitted, r.OK, r.Late, r.Shed, r.Expired, r.Faulted, r.Stopped, r.Rejected, r.Other, r.Rerouted, r.Failovers,
		100*r.ErrorRate(), r.P50MS, r.P99MS, r.MeanAccuracy, r.CostUSD, r.CostPerMillion)
}

// FrontierTable renders the per-region cost-accuracy frontier: each
// region is one point ($/million-on-time vs delivered accuracy), with
// the global aggregate last. This is the artifact the multi-region story
// is about — under a regional fault the dark region's row collapses
// while the survivors' rows absorb its load at a visible cost.
func (r *Report) FrontierTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %6s %6s %8s %9s %12s %9s\n",
		"region", "shards", "ok", "late", "err", "down(s)", "spot", "$/M-on-time", "accuracy")
	for _, reg := range r.Regions {
		fmt.Fprintf(&b, "%-12s %6d %8d %6d %6d %8.1f %9.2f %12.2f %9.4f\n",
			reg.Region, reg.Shards, reg.OK, reg.Late, reg.Errors,
			reg.DownSeconds, reg.SpotMean, reg.CostPerMillion, reg.MeanAccuracy)
	}
	fmt.Fprintf(&b, "%-12s %6s %8d %6d %6d %8s %9s %12.2f %9.4f\n",
		"global", "", r.OK, r.Late, r.Failed(), "", "", r.CostPerMillion, r.MeanAccuracy)
	return b.String()
}

// RunLoad replays arrivals open-loop through the router on the shared
// serving.Replay generator, so latency runs from the scheduled arrival to the
// routed response (failover RTT counts) and outcomes are attributed to the
// region that served them. Arrivals cycle through the tenants the shards
// host. The caller owns gateway Start/Stop and router Start/Stop.
func RunLoad(r *Router, cfg LoadConfig) (*Report, error) {
	if cfg.Duration <= 0 {
		return nil, errors.New("shard: load config needs a positive duration")
	}
	var arrivals []float64
	switch {
	case cfg.Total > 0:
		arrivals = workload.ShapedArrivals(cfg.Total, cfg.Duration.Seconds(), cfg.Shapes, cfg.Seed)
	case cfg.Trace != nil && len(cfg.Trace.Windows) > 0:
		windowSec := cfg.Duration.Seconds() / float64(len(cfg.Trace.Windows))
		arrivals = workload.ArrivalTimes(cfg.Trace, windowSec, cfg.Seed)
	default:
		return nil, errors.New("shard: load config needs Total or a trace")
	}
	regions := r.Regions()
	weights := cfg.OriginWeights
	if weights == nil {
		weights = make([]float64, len(regions))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(regions) {
		return nil, fmt.Errorf("shard: %d origin weights for %d regions", len(weights), len(regions))
	}
	origins := workload.AssignRegions(len(arrivals), weights, cfg.OriginCorr, cfg.Seed+1)

	inst := cfg.Instance
	if inst == nil {
		var err error
		inst, err = cloud.ByName("p2.xlarge")
		if err != nil {
			return nil, err
		}
	}

	gw := r.shards[0].gw
	var tenants []string
	for _, st := range gw.AllTenantStats() {
		tenants = append(tenants, st.Name)
	}
	sched := serving.Arrivals(arrivals, tenants...)
	shedBefore := r.shed.Value()
	reroutedBefore := r.rerouted.Value()
	failoversBefore := r.failovers.Value()

	run := serving.Replay[Routed]{
		Schedule: sched,
		Seed:     cfg.Seed,
		Deadline: cfg.Deadline,
		Cooldown: cfg.Cooldown,
		Tracer:   r.cfg.Tracer,
		Ladder:   gw.Ladder,
		Submit: func(ctx context.Context, i int, img *tensor.Tensor, deadline time.Time) (<-chan Routed, error) {
			ch, _, err := r.SubmitAs(ctx, sched[i].Tenant, Key(cfg.Seed+int64(i)), regions[origins[i]], img, deadline)
			return ch, err
		},
		// Outcomes are attributed to the region of the shard that served
		// the request, after any failover.
		Group: func(resp Routed) string { return r.shards[resp.Shard].region },
	}.Run()
	rep := &Report{Tally: run.Total, WallSeconds: run.Wall.Seconds()}
	rep.RouterShed = r.shed.Value() - shedBefore
	rep.Rerouted = r.rerouted.Value() - reroutedBefore
	rep.Failovers = r.failovers.Value() - failoversBefore
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.Served()) / rep.WallSeconds
	}

	// Regional billing: each region's replica-seconds at its regional
	// price times the run's time-averaged spot multiplier. (The multiplier
	// is averaged over the run rather than integrated against the
	// instantaneous replica count; with replica counts roughly constant
	// the two agree.)
	byRegion := map[string]*RegionReport{}
	for _, st := range r.shards {
		reg := byRegion[st.region]
		if reg == nil {
			t := run.Groups[st.region]
			reg = &RegionReport{
				Region: st.region, OK: t.OK, Late: t.Late, Errors: t.Submitted - t.Served(),
				SpotMean: 1, MeanAccuracy: t.MeanAccuracy,
			}
			byRegion[st.region] = reg
		}
		reg.Shards++
		reg.ReplicaSeconds += st.gw.ReplicaSeconds()
	}
	for _, name := range regions {
		reg := byRegion[name]
		if reg == nil {
			continue
		}
		region, err := cloud.RegionByName(name)
		if err != nil {
			// Unknown to the catalog (tests use synthetic names): bill at
			// baseline pricing.
			region = cloud.Region{Name: name, PriceMultiplier: 1}
		}
		if cfg.Schedule != nil && rep.WallSeconds > 0 {
			reg.SpotMean = cfg.Schedule.PriceIntegral(name, 0, rep.WallSeconds) / rep.WallSeconds
			reg.DownSeconds = regionDownSeconds(cfg.Schedule, name, rep.WallSeconds)
		}
		reg.CostUSD = reg.ReplicaSeconds * (cloud.RegionalPrice(inst, region) / 3600) * reg.SpotMean
		if reg.OK > 0 {
			reg.CostPerMillion = reg.CostUSD / (float64(reg.OK) / 1e6)
		}
		rep.CostUSD += reg.CostUSD
		rep.Regions = append(rep.Regions, *reg)
	}
	if rep.OK > 0 {
		rep.CostPerMillion = rep.CostUSD / (float64(rep.OK) / 1e6)
	}
	return rep, nil
}

// regionDownSeconds sums the schedule's RegionDown windows for one
// region clipped to [0, wall].
func regionDownSeconds(s *fault.Schedule, region string, wall float64) float64 {
	var total float64
	for _, e := range s.Events {
		if e.Kind != fault.RegionDown || e.Region != region {
			continue
		}
		lo, hi := e.At, e.At+e.Duration
		if lo < 0 {
			lo = 0
		}
		if hi > wall {
			hi = wall
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
