// Command ccperf is the interactive CLI for the cost-accuracy library:
//
//	ccperf characterize -model caffenet            # Figures 3–5 style characterization
//	ccperf sweep -model caffenet -layer conv2      # Figure 6/7 style pruning sweep
//	ccperf sweetspots -model caffenet              # per-layer sweet-spot report
//	ccperf pareto -images 1000000 -deadline 0.63   # feasible space + frontiers
//	ccperf allocate -images 1000000 -deadline 0.63 -budget 5
//	ccperf tables                                  # Tables 1 and 3
//	ccperf compress                                # quantization & weight sharing
//	ccperf empirical                               # trained-and-pruned accuracy
//	ccperf predict                                 # cross-instance transfer prediction
//	ccperf loadtest -requests 2000 -duration 10s   # replay a trace against the gateway
//	ccperf serve -addr :8080                       # live telemetry endpoint
//	ccperf benchjson < bench.txt                   # bench output → telemetry JSON
//	ccperf benchdiff BENCH_6.json out/bench.json   # variance-aware perf diff
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"ccperf"
	"ccperf/internal/autoscale"
	"ccperf/internal/benchdiff"
	"ccperf/internal/cloud"
	"ccperf/internal/cluster"
	"ccperf/internal/compress"
	"ccperf/internal/dataset"
	"ccperf/internal/fault"
	"ccperf/internal/gpusim"
	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
	"ccperf/internal/report"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/tenant"
	"ccperf/internal/train"
	"ccperf/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	// Interrupt (Ctrl-C) cancels the context, which propagates down to the
	// exploration workers and measurement loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch cmd {
	case "characterize":
		err = characterize(args)
	case "sweep":
		err = sweep(ctx, args)
	case "sweetspots":
		err = sweetspots(ctx, args)
	case "pareto":
		err = paretoCmd(ctx, args)
	case "allocate":
		err = allocate(ctx, args)
	case "tables":
		err = tables(args)
	case "compress":
		err = compressCmd(args)
	case "empirical":
		err = empiricalCmd(args)
	case "simulate":
		err = simulateCmd(ctx, args)
	case "predict":
		err = predictCmd(ctx, args)
	case "loadtest":
		err = loadtestCmd(args)
	case "pack":
		err = packCmd(ctx, args)
	case "spec":
		err = specCmd(args)
	case "serve":
		err = serveCmd(ctx, args)
	case "benchjson":
		err = benchjsonCmd(args)
	case "benchdiff":
		err = benchdiffCmd(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ccperf: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccperf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ccperf <command> [flags]

commands:
  characterize  layer time distribution, single-inference latency, saturation
  sweep         prune one layer 0–90% and report time/accuracy
  sweetspots    largest no-accuracy-loss prune ratio per layer
  pareto        enumerate the joint space, print feasible count + frontiers
  allocate      run Algorithm 1 under a deadline and budget
  tables        print Table 1 (Caffenet layers) and Table 3 (EC2 types)
  compress      quantization / weight-sharing memory-accuracy table
  empirical     prune a really trained CNN and report measured accuracy
  simulate      discrete-event day simulation of a fleet serving a trace
                (-faults injects preemptions/stragglers; -retry-budget caps
                re-dispatches of interrupted jobs)
  predict       fit PROFET-style roofline scaling factors from calibrated
                instance types (-fit), report the leave-one-out held-out
                error table (-max-error gates the exit), and extrapolate
                batch times to the unprofiled p3/V100 transfer targets;
                -train prices a training job (samples × epochs, forward+
                backward steps) on every type, and -train -fleet plans the
                training fleet end-to-end through the failure-aware cluster
                simulator (accepts transfer targets in the fleet spec)
  loadtest      replay a trace against the online gateway (batching, shedding,
                load-adaptive pruning) and report latency/accuracy/cost
                (-autoscale closes the cost-accuracy loop: scale out while
                the -budget allows, degrade when it binds; -chaos/-faults
                injects crashes; -max-error-rate/-max-p99 gate the exit;
                -tenants <spec.json> hosts N tenants — own ladders, SLOs,
                quotas, fair batching — on one shared fleet and reports
                per-tenant rows, and with -autoscale the joint bill;
                -shards N routes across N regional gateways by consistent
                hashing with health-aware failover — -regions, -shape,
                -origin-weights shape the hostile workload, -balance runs
                the shift-before-degrade regional loop, and the report is
                the per-region cost-accuracy frontier)
  pack          enumerate multi-tenant packings offline: which tenants share
                a pool, at which rungs — per-tenant $/M on-time, the joint
                cost-accuracy frontier, and the dedicated baseline
  spec          build a custom CNN from a spec file, cost it, sweep pruning
  serve         HTTP telemetry endpoint: /metrics, /trace, /debug/pprof/
                (-gateway mounts the live gateway at /infer and
                /gateway/status; -tenants hosts a spec file's tenants on
                it instead of one ladder; -autoscale adds the control
                plane over every tenant at /autoscale/status)
  benchjson     convert 'go test -bench' output to a ccperf/v1 bench
                envelope (-count-aware; -sha/-benchtime/-count record
                provenance, -loadtest folds a loadtest report's macro
                numbers into the same snapshot)
  benchdiff     compare two bench envelopes with variance-aware statistics
                (-threshold, -json, -fail-on-regression gate the hot paths)

every subcommand answers -h with its own one-line usage and flags.
shared flags across run commands:
  -metrics-out <file>   write the run's metrics snapshot as JSON
  -trace-out <file>     write the run's spans as JSON (.chrome.json for
                        the Chrome trace_event format)
  -report-out <file>    write the primary result as a versioned ccperf/v1
                        JSON envelope (simulate, loadtest, predict)
  -workers <n>          exploration worker-pool size (pareto/allocate/
                        predict; default: number of CPUs)
  -faults <spec>        fault schedule (simulate, loadtest, predict -train)

see docs/TELEMETRY.md for metric names and endpoint routes,
docs/SERVING.md for the gateway architecture and loadtest usage,
docs/AUTOSCALING.md for the cost-accuracy autoscaler,
docs/MULTITENANT.md for the tenant spec format and fairness model,
docs/RESILIENCE.md for the fault-spec grammar and chaos workflows`)
}

func characterize(args []string) error {
	fs := newFlagSet("characterize", "layer time distribution, single-inference latency, batch saturation (Figures 3–5)")
	model := modelFlag(fs)
	fs.Parse(args)
	for _, id := range []string{"fig3", "fig4", "fig5"} {
		if *model == ccperf.Googlenet && id != "fig4" {
			continue // the paper characterizes layers/saturation on Caffenet
		}
		res, err := ccperf.RunExperiment(id)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n%s\n", res.Title, res.Text)
	}
	return nil
}

func sweep(ctx context.Context, args []string) error {
	fs := newFlagSet("sweep", "prune one layer 0–90% and report time/accuracy (Figures 6/7)")
	model := modelFlag(fs)
	layer := fs.String("layer", "conv2", "layer to prune")
	images := fs.Int64("images", ccperf.W50k, "inference workload size")
	instance := fs.String("instance", "p2.xlarge", "EC2 instance type")
	fs.Parse(args)

	sys, err := ccperf.NewSystem(*model)
	if err != nil {
		return err
	}
	pts, err := sys.LayerSweep(ctx, *layer, nil, *instance, *images)
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("%s %s on %s, %d images", *model, *layer, *instance, *images),
		"Prune (%)", "Time (min)", "Top-1 (%)", "Top-5 (%)")
	for _, p := range pts {
		tb.Row(p.Ratio*100, fmt.Sprintf("%.1f", p.Minutes), fmt.Sprintf("%.0f", p.Top1*100), fmt.Sprintf("%.0f", p.Top5*100))
	}
	fmt.Print(tb.String())
	return nil
}

func sweetspots(ctx context.Context, args []string) error {
	fs := newFlagSet("sweetspots", "largest no-accuracy-loss prune ratio per layer (Observation 1)")
	model := modelFlag(fs)
	images := fs.Int64("images", ccperf.W50k, "inference workload size")
	fs.Parse(args)

	sys, err := ccperf.NewSystem(*model)
	if err != nil {
		return err
	}
	var layers []string
	if *model == ccperf.Caffenet {
		layers = models.CaffenetConvNames()
	} else {
		layers = models.GooglenetSelectedConvNames()
	}
	spots, err := sys.SweetSpots(ctx, layers, *images)
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("%s sweet-spots (no accuracy loss)", *model),
		"Layer", "Max prune (%)", "Time saved (%)")
	for _, s := range spots {
		tb.Row(s.Layer, s.MaxRatio*100, fmt.Sprintf("%.1f", s.TimeSavedPct))
	}
	fmt.Print(tb.String())
	return nil
}

func requestFlags(fs *flag.FlagSet) (*int64, *float64, *float64, *int, *bool) {
	images := fs.Int64("images", ccperf.W1M, "images to infer")
	deadline := fs.Float64("deadline", 0, "time deadline in hours (0 = none)")
	budget := fs.Float64("budget", 0, "cost budget in dollars (0 = none)")
	variants := fs.Int("variants", 60, "number of pruned model variants")
	top5 := fs.Bool("top5", false, "optimize Top-5 instead of Top-1")
	return images, deadline, budget, variants, top5
}

func paretoCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("pareto", "enumerate the joint space, print feasible count + Pareto frontiers (Figures 9/10)")
	model := modelFlag(fs)
	images, deadline, budget, variants, top5 := requestFlags(fs)
	workers := workersFlag(fs)
	metricsOut, traceOut := telemetryFlags(fs)
	fs.Parse(args)

	p, err := ccperf.NewPlanner(*model)
	if err != nil {
		return err
	}
	req := ccperf.Request{Images: *images, DeadlineHours: *deadline, BudgetUSD: *budget, Variants: *variants, UseTop5: *top5, Workers: *workers}
	if err := req.Validate(); err != nil {
		return err
	}
	n, tf, cf, err := p.Frontiers(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("%d feasible configurations\n\n", n)
	for _, fr := range []struct {
		name string
		pts  []ccperf.FrontierPoint
	}{{"time-accuracy", tf}, {"cost-accuracy", cf}} {
		tb := report.NewTable(fr.name+" Pareto frontier", "Accuracy (%)", "Hours", "Cost ($)", "Degree", "Config")
		for _, pt := range fr.pts {
			tb.Row(fmt.Sprintf("%.0f", pt.Accuracy*100), fmt.Sprintf("%.3f", pt.Hours), fmt.Sprintf("%.2f", pt.CostUSD), pt.Degree, pt.Config)
		}
		fmt.Println(tb.String())
	}
	return writeTelemetry(*metricsOut, *traceOut)
}

func allocate(ctx context.Context, args []string) error {
	fs := newFlagSet("allocate", "run Algorithm 1's greedy allocation under a deadline and budget")
	model := modelFlag(fs)
	images, deadline, budget, variants, top5 := requestFlags(fs)
	exhaustive := fs.Bool("exhaustive", false, "also run the brute-force baseline")
	workers := workersFlag(fs)
	metricsOut, traceOut := telemetryFlags(fs)
	fs.Parse(args)

	p, err := ccperf.NewPlanner(*model)
	if err != nil {
		return err
	}
	req := ccperf.Request{Images: *images, DeadlineHours: *deadline, BudgetUSD: *budget, Variants: *variants, UseTop5: *top5, Workers: *workers}
	if err := req.Validate(); err != nil {
		return err
	}
	plan, err := p.Allocate(ctx, req)
	if err != nil {
		return err
	}
	printPlan("Algorithm 1 (TAR/CAR greedy)", plan)
	if *exhaustive {
		best, err := p.AllocateExhaustive(ctx, req)
		if err != nil {
			return err
		}
		printPlan("Exhaustive baseline", best)
	}
	return writeTelemetry(*metricsOut, *traceOut)
}

func printPlan(name string, pl ccperf.Plan) {
	if !pl.Found {
		fmt.Printf("%s: no feasible allocation (%d model evaluations)\n", name, pl.Ops)
		return
	}
	fmt.Printf("%s:\n  degree : %s (Top-1 %.0f%%, Top-5 %.0f%%)\n  config : %s\n  time   : %.3f h\n  cost   : $%.2f\n  evals  : %d\n",
		name, pl.Degree, pl.Top1*100, pl.Top5*100, pl.Config, pl.Hours, pl.CostUSD, pl.Ops)
}

func tables(args []string) error {
	fs := newFlagSet("tables", "print Table 1 (Caffenet layers) and Table 3 (EC2 instance types)")
	fs.Parse(args)
	for _, id := range []string{"table1", "table3"} {
		res, err := ccperf.RunExperiment(id)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n%s\n", res.Title, res.Text)
	}
	return nil
}

// compressCmd demonstrates the Section 2.1 companion techniques on the
// empirically trained network: quantization bit widths and weight-sharing
// codebook sizes versus memory footprint and measured accuracy.
func compressCmd(args []string) error {
	fs := newFlagSet("compress", "quantization / weight-sharing memory-accuracy table (Section 2.1)")
	fs.Parse(args)

	shape := nn.Shape{C: 1, H: 16, W: 16}
	ds, err := dataset.Synthetic(dataset.Config{
		Classes: 10, PerClass: 60, Shape: shape, Noise: 1.2, Shift: 2, Seed: 11,
	})
	if err != nil {
		return err
	}
	tr, val := ds.Split(0.75)
	model, err := train.New(train.Config{Input: shape, Conv1: 8, Conv2: 16, Classes: 10, Seed: 12})
	if err != nil {
		return err
	}
	if _, err := model.Train(tr, train.DefaultOpts()); err != nil {
		return err
	}
	base, _, err := model.Evaluate(val, 3)
	if err != nil {
		return err
	}
	w1, _ := model.ConvWeights(1)
	w2, _ := model.ConvWeights(2)
	fullBytes := int64(4 * (len(w1.Data) + len(w2.Data)))
	fmt.Printf("trained small CNN: Top-1 %.0f%%, conv weights %d bytes fp32\n\n", base*100, fullBytes)

	qt := report.NewTable("Quantization (both conv layers)", "Bits", "Weight bytes", "vs fp32", "Top-1 (%)", "Speedup on K80/M60")
	for _, bits := range []int{16, 8, 4, 2, 1} {
		c := model.Clone()
		for layer := 1; layer <= 2; layer++ {
			w, _ := c.ConvWeights(layer)
			if err := compress.Quantize(w, bits); err != nil {
				return err
			}
		}
		a, _, err := c.Evaluate(val, 3)
		if err != nil {
			return err
		}
		bytes := compress.QuantizedBytes(w1, bits) + compress.QuantizedBytes(w2, bits)
		qt.Row(bits, bytes, fmt.Sprintf("%.1f%%", float64(bytes)/float64(fullBytes)*100),
			fmt.Sprintf("%.0f", a*100),
			fmt.Sprintf("%.0fx (no low-precision hw)", compress.TimeSpeedup(bits, false)))
	}
	fmt.Println(qt.String())

	st := report.NewTable("Weight sharing (k-means codebook, both conv layers)", "k", "Weight bytes", "vs fp32", "Top-1 (%)")
	for _, k := range []int{64, 32, 16, 8, 4} {
		c := model.Clone()
		for layer := 1; layer <= 2; layer++ {
			w, _ := c.ConvWeights(layer)
			if _, err := compress.WeightShare(w, k, 20); err != nil {
				return err
			}
		}
		a, _, err := c.Evaluate(val, 3)
		if err != nil {
			return err
		}
		bytes := compress.SharedBytes(w1, k) + compress.SharedBytes(w2, k)
		st.Row(k, bytes, fmt.Sprintf("%.1f%%", float64(bytes)/float64(fullBytes)*100), fmt.Sprintf("%.0f", a*100))
	}
	fmt.Println(st.String())
	fmt.Println("Note: per the paper (Section 2.1), these save memory; on the K80/M60")
	fmt.Println("generation there is no low-precision speedup, so pruning remains the")
	fmt.Println("technique that converts accuracy into execution time and cost.")
	return nil
}

// empiricalCmd prints the trained-and-really-pruned accuracy sweep.
func empiricalCmd(args []string) error {
	fs := newFlagSet("empirical", "prune a really trained CNN and report measured accuracy")
	fs.Parse(args)
	res, err := ccperf.RunExperiment("empirical")
	if err != nil {
		return err
	}
	fmt.Printf("== %s\n%s", res.Title, res.Text)
	return nil
}

// simulateCmd runs a 24-hour discrete-event simulation of a fleet serving
// a request trace at a chosen degree of pruning, optionally under an
// injected fault schedule (preemptions, stragglers).
func simulateCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("simulate", "discrete-event day simulation of a fleet serving a trace")
	model := modelFlag(fs)
	fleetSpec := fs.String("fleet", "3xp2.xlarge", "fleet, e.g. \"2xp2.xlarge+1xg3.4xlarge\"")
	daily := fs.Int64("daily", 3_500_000, "photos per day")
	pattern := fs.String("pattern", "bursty", "arrival pattern: uniform, diurnal, bursty")
	chunk := fs.Int64("chunk", 20_000, "images per job")
	slack := fs.Float64("slack", 0.5, "per-job deadline as a fraction of the window")
	degreeSpec := fs.String("degree", "", "degree of pruning, e.g. \"conv1@30+conv2@50\" (empty = unpruned)")
	seed := fs.Int64("seed", 9, "trace seed")
	faultSpec := faultsFlag(fs, "preempt@0:3600,slow@1:1800+900x2.5,seed=7")
	retryBudget := fs.Int("retry-budget", 0, "re-dispatches per interrupted job (0 = default 2, negative = none)")
	reportOut := reportOutFlag(fs)
	metricsOut, traceOut := telemetryFlags(fs)
	fs.Parse(args)

	pat, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	faults, err := fault.ParseSchedule(*faultSpec)
	if err != nil {
		return err
	}
	trace, err := workload.Generate(workload.Config{
		Pattern: pat, DailyTotal: *daily, Windows: 24, Seed: *seed,
	})
	if err != nil {
		return err
	}
	cfg, err := cloud.ParseConfig(*fleetSpec)
	if err != nil {
		return err
	}
	degree, err := prune.ParseDegree(*degreeSpec)
	if err != nil {
		return err
	}
	sys, err := ccperf.NewSystem(*model)
	if err != nil {
		return err
	}
	jobs := cluster.JobsFromWindows(trace.Windows, 3600, *chunk, *slack)
	rcfg := cluster.ConfigFor(sys.Predictor(), degree, cfg.Instances, 24*3600)
	rcfg.Faults = faults
	rcfg.RetryBudget = *retryBudget
	res, err := cluster.Run(ctx, rcfg, jobs)
	if err != nil {
		return err
	}
	fmt.Printf("trace   : %s, %d photos (%d jobs), peak hour %d\n", pat, trace.Total(), len(jobs), trace.Peak())
	fmt.Printf("fleet   : %s at degree %s\n", cfg.Label(), degree.Label())
	fmt.Printf("latency : p50 %.1f min, p95 %.1f min, p99 %.1f min, max %.1f min\n",
		res.P50Response/60, res.P95Response/60, res.P99Response/60, res.MaxResponse/60)
	fmt.Printf("misses  : %d of %d jobs\n", res.Misses, len(res.Jobs))
	fmt.Printf("util    : %.0f%% average\n", res.AverageUtilization()*100)
	fmt.Printf("cost    : $%.2f for the 24 h rental\n", res.Cost)
	if len(faults.Events) > 0 {
		fmt.Printf("faults  : %d preemptions, %d retries, %d failed jobs, %.0f s wasted\n",
			res.Preemptions, res.Retries, res.FailedJobs, res.WastedSeconds)
		fmt.Printf("goodput : %.0f img/s finished (%d images), $%.2f per million images\n",
			res.Goodput, res.FinishedImages, res.CostPerMillionImages())
	}
	if *reportOut != "" {
		if err := report.WriteEnvelopeFile(*reportOut, report.KindSimulate, res); err != nil {
			return fmt.Errorf("report-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "simulate: report → %s\n", *reportOut)
	}
	return writeTelemetry(*metricsOut, *traceOut)
}

// parsePattern maps a CLI pattern name to the workload constant.
func parsePattern(name string) (workload.Pattern, error) {
	switch name {
	case "uniform":
		return workload.Uniform, nil
	case "diurnal":
		return workload.Diurnal, nil
	case "bursty":
		return workload.Bursty, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q", name)
	}
}

// parseRatios parses a comma-separated ladder spec like "0,0.5,0.9".
// Empty means the serving package's default ladder.
func parseRatios(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	ratios := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("ladder ratio %q: %w", p, err)
		}
		if r < 0 || r >= 1 {
			return nil, fmt.Errorf("ladder ratio %v out of [0,1)", r)
		}
		ratios = append(ratios, r)
	}
	return ratios, nil
}

// loadtestCmd replays a compressed-day trace open-loop against an
// in-process serving gateway (dynamic batching, bounded admission,
// load-adaptive pruning) and prints the latency/accuracy/cost report.
func loadtestCmd(args []string) error {
	fs := newFlagSet("loadtest", "replay a compressed-day trace against the online gateway and report latency/accuracy/cost")
	requests := fs.Int64("requests", 2000, "total requests replayed")
	duration := fs.Duration("duration", 10*time.Second, "wall-clock replay length (the whole trace compresses into it)")
	pattern := fs.String("pattern", "bursty", "arrival pattern: uniform, diurnal, bursty")
	windows := fs.Int("windows", 12, "windows in the trace")
	seed := fs.Int64("seed", 9, "trace and arrival seed")
	replicas := fs.Int("replicas", 0, "initial replica batchers (0 = 2, or -min-replicas with -autoscale)")
	queueCap := fs.Int("queue", 0, "admission queue bound (0 = 64×replicas)")
	maxBatch := fs.Int("max-batch", 8, "dynamic batch size cap")
	batchTimeout := fs.Duration("batch-timeout", 2*time.Millisecond, "longest wait to fill a batch")
	slo := fs.Duration("slo", 50*time.Millisecond, "p99 latency objective the control plane defends")
	deadline := fs.Duration("deadline", 0, "per-request deadline (0 = none)")
	cooldown := fs.Duration("cooldown", 500*time.Millisecond, "idle tail so the controller can restore accuracy")
	ladderSpec := fs.String("ladder", "", "comma-separated prune ratios, e.g. 0,0.5,0.9 (default 0,0.3,0.5,0.7,0.9)")
	instance := fs.String("instance", "p2.xlarge", "instance type pricing each replica")
	autoscaleOn := fs.Bool("autoscale", false, "run the cost-accuracy autoscaler over the gateway's tenants (one ladder, or each -tenants tenant): replicas scale in [-min-replicas,-max-replicas] under -budget; a ladder degrades only when the budget binds, the tenant with the most accuracy-per-dollar slack first")
	budget := fs.Float64("budget", 8, "fleet budget in $/hr (with -autoscale; 0 = none)")
	minReplicas := fs.Int("min-replicas", 1, "autoscale floor (with -autoscale)")
	maxReplicas := fs.Int("max-replicas", 8, "autoscale ceiling (with -autoscale)")
	autoscaleInterval := fs.Duration("autoscale-interval", 100*time.Millisecond, "autoscale control tick (with -autoscale)")
	warmup := fs.Duration("warmup", 0, "boot delay for replicas added at runtime (with -autoscale)")
	maxP99 := fs.Duration("max-p99", 0, "exit non-zero when the measured p99 exceeds this (0 = no gate)")
	faultSpec := faultsFlag(fs, "crash@0:2+3,err:0.02,seed=7")
	chaos := fs.Bool("chaos", false, "inject a canned seeded chaos schedule (crash replica 0 for the middle third of the run, plus a 2% error rate)")
	maxErrorRate := fs.Float64("max-error-rate", 1, "exit non-zero when (shed+expired+faulted+stopped+other)/submitted exceeds this fraction (with -tenants: the worst tenant's)")
	tenantsSpec := fs.String("tenants", "", "tenant spec file: host N ladders with per-tenant SLOs/quotas on one shared fleet (see docs/MULTITENANT.md; each tenant replays its own offered_qps Poisson load, so -requests/-pattern are ignored; -autoscale drives the shared replicas and every tenant's rung)")
	shards := fs.Int("shards", 0, "route across N sharded gateways spread over -regions (consistent hashing, health-aware regional failover; -pattern is replaced by -shape; see docs/RESILIENCE.md)")
	regionsSpec := fs.String("regions", "us-west,us-east", "comma-separated regions hosting the shards round-robin (with -shards)")
	shapeSpec := fs.String("shape", "", "composed arrival shape, e.g. \"diurnal:0.6@0.75,flash:0.5+0.05+0.2x4\" (with -shards; empty = uniform)")
	originWeights := fs.String("origin-weights", "", "comma-separated request-origin skew across -regions (with -shards; empty = uniform)")
	originCorr := fs.Float64("origin-corr", 0, "Markov stickiness of consecutive request origins in [0,1) (with -shards)")
	balance := fs.Bool("balance", false, "run the regional balancer: shift load toward cheap healthy regions before degrading accuracy (with -shards)")
	balanceInterval := fs.Duration("balance-interval", 100*time.Millisecond, "regional balancer control tick (with -shards -balance)")
	reportOut := reportOutFlag(fs)
	metricsOut, traceOut := telemetryFlags(fs)
	fs.Parse(args)

	pat, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	faults, err := fault.ParseSchedule(*faultSpec)
	if err != nil {
		return err
	}
	if *chaos && len(faults.Events) == 0 {
		third := duration.Seconds() / 3
		faults = &fault.Schedule{Seed: *seed, Events: []fault.Event{
			{Kind: fault.Crash, Target: 0, At: third, Duration: third},
			{Kind: fault.Errors, Target: fault.AllTargets, Rate: 0.02},
		}}
	}
	if *shards > 0 {
		if *tenantsSpec != "" {
			return fmt.Errorf("loadtest: -shards and -tenants are mutually exclusive")
		}
		if *autoscaleOn {
			return fmt.Errorf("loadtest: -shards replaces -autoscale with the regional balancer; use -balance")
		}
		return shardLoadtest(shardLoadtestOpts{
			shards:       *shards,
			regionsSpec:  *regionsSpec,
			requests:     *requests,
			duration:     *duration,
			seed:         *seed,
			replicas:     *replicas,
			queueCap:     *queueCap,
			maxBatch:     *maxBatch,
			batchTimeout: *batchTimeout,
			slo:          *slo,
			deadline:     *deadline,
			cooldown:     *cooldown,
			ladderSpec:   *ladderSpec,
			instance:     *instance,
			faults:       faults,
			shapeSpec:    *shapeSpec,
			originSpec:   *originWeights,
			originCorr:   *originCorr,
			balance:      *balance,
			interval:     *balanceInterval,
			maxP99:       *maxP99,
			maxErrorRate: *maxErrorRate,
			reportOut:    *reportOut,
			metricsOut:   *metricsOut,
			traceOut:     *traceOut,
		})
	}
	if *tenantsSpec != "" {
		return tenantLoadtest(tenantLoadtestOpts{
			specPath:     *tenantsSpec,
			duration:     *duration,
			seed:         *seed,
			cooldown:     *cooldown,
			replicas:     *replicas,
			maxBatch:     *maxBatch,
			batchTimeout: *batchTimeout,
			instance:     *instance,
			faults:       faults,
			autoscale:    *autoscaleOn,
			budget:       *budget,
			minReplicas:  *minReplicas,
			maxReplicas:  *maxReplicas,
			interval:     *autoscaleInterval,
			warmup:       *warmup,
			maxP99:       *maxP99,
			maxErrorRate: *maxErrorRate,
			reportOut:    *reportOut,
			metricsOut:   *metricsOut,
			traceOut:     *traceOut,
		})
	}
	trace, err := workload.Generate(workload.Config{
		Pattern: pat, DailyTotal: *requests, Windows: *windows, Seed: *seed,
	})
	if err != nil {
		return err
	}
	ratios, err := parseRatios(*ladderSpec)
	if err != nil {
		return err
	}

	opts := []ccperf.Option{
		ccperf.WithGateway(),
		ccperf.WithReplicas(*replicas),
		ccperf.WithQueueCap(*queueCap),
		ccperf.WithMaxBatch(*maxBatch),
		ccperf.WithBatchTimeout(*batchTimeout),
		ccperf.WithSLO(*slo),
		ccperf.WithDeadline(*deadline),
		ccperf.WithInstance(*instance),
	}
	if len(ratios) > 0 {
		opts = append(opts, ccperf.WithLadder(ratios...))
	}
	if len(faults.Events) > 0 {
		opts = append(opts, ccperf.WithInjector(faults))
	}
	if *autoscaleOn {
		opts = append(opts,
			ccperf.WithAutoscale(*budget, *minReplicas, *maxReplicas),
			ccperf.WithAutoscaleInterval(*autoscaleInterval),
			ccperf.WithWarmup(*warmup))
	}
	st, err := ccperf.Open(ccperf.Caffenet, opts...)
	if err != nil {
		return err
	}
	g := st.Gateway()
	st.Start()
	rep, err := serving.RunLoad(g, serving.LoadConfig{
		Trace:    trace,
		Duration: *duration,
		Seed:     *seed,
		Deadline: *deadline,
		Cooldown: *cooldown,
	})
	st.Close()
	if err != nil {
		return err
	}
	resolved := g.Config()
	fmt.Printf("trace    : %s, %d requests over %d windows in %s (peak window %d)\n",
		pat, trace.Total(), len(trace.Windows), *duration, trace.Peak())
	fmt.Printf("gateway  : %d initial replicas × batch ≤%d, queue %d, SLO %s, ladder %d variants\n",
		resolved.Replicas, resolved.MaxBatch, resolved.QueueCap, resolved.SLO, len(resolved.Ladder))
	if len(faults.Events) > 0 {
		fmt.Printf("chaos    : %s\n", faults.String())
	}
	fmt.Print(rep.String())
	asStatus := reportFleet(st)

	if *reportOut != "" {
		payload := struct {
			Report    *serving.Report   `json:"report"`
			Gateway   serving.Stats     `json:"gateway"`
			Autoscale *autoscale.Status `json:"autoscale,omitempty"`
		}{rep, g.Stats(), asStatus}
		if err := report.WriteEnvelopeFile(*reportOut, report.KindLoadtest, payload); err != nil {
			return fmt.Errorf("report-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loadtest: report → %s\n", *reportOut)
	}
	if err := writeTelemetry(*metricsOut, *traceOut); err != nil {
		return err
	}

	// Exit gates, in order of severity: error rate, latency, budget.
	if rate := rep.ErrorRate(); rate > *maxErrorRate {
		return fmt.Errorf("loadtest: error rate %.2f%% exceeds -max-error-rate %.2f%%",
			rate*100, *maxErrorRate*100)
	}
	if *maxP99 > 0 && rep.P99MS > maxP99.Seconds()*1000 {
		return fmt.Errorf("loadtest: p99 %.1fms exceeds -max-p99 %s", rep.P99MS, *maxP99)
	}
	return budgetGate(asStatus, *budget, rep.WallSeconds)
}

// serveCmd exposes the live telemetry surface. With -demo it first runs a
// small joint-space enumeration so the endpoint has data to show; with
// -gateway it also starts an inference gateway and mounts its /infer and
// /gateway/status routes on the same listener.
func serveCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("serve", "HTTP telemetry endpoint: /metrics, /trace, /debug/pprof/ (-gateway or -tenants adds /infer and /gateway/status, -autoscale adds /autoscale/status)")
	addr := fs.String("addr", ":8080", "listen address")
	model := modelFlag(fs)
	demo := fs.Bool("demo", false, "run a small pareto enumeration first to populate metrics")
	gateway := fs.Bool("gateway", false, "mount the online inference gateway at /infer and /gateway/status")
	replicas := fs.Int("replicas", 0, "gateway replica batchers (0 = 2, or -min-replicas with -autoscale)")
	slo := fs.Duration("slo", 50*time.Millisecond, "gateway p99 latency objective (with -gateway)")
	ladderSpec := fs.String("ladder", "", "gateway prune-ratio ladder, e.g. 0,0.5,0.9 (with -gateway)")
	autoscaleOn := fs.Bool("autoscale", false, "run the cost-accuracy autoscaler over the gateway's tenants (one ladder or -tenants) and mount /autoscale/status (implies -gateway)")
	budget := fs.Float64("budget", 8, "fleet budget in $/hr (with -autoscale; 0 = none)")
	minReplicas := fs.Int("min-replicas", 1, "autoscale floor (with -autoscale)")
	maxReplicas := fs.Int("max-replicas", 8, "autoscale ceiling (with -autoscale)")
	instance := fs.String("instance", "p2.xlarge", "instance type pricing each replica (with -autoscale)")
	tenantsSpec := fs.String("tenants", "", "tenant spec file: host its tenants on the gateway instead of one ladder (-autoscale drives every tenant's rung)")
	fs.Parse(args)

	if *demo {
		p, err := ccperf.NewPlanner(*model)
		if err != nil {
			return err
		}
		if _, _, _, err := p.Frontiers(ctx, ccperf.Request{Images: ccperf.W1M, DeadlineHours: 0.63}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "serve: demo enumeration done, metrics populated")
	}
	handler := telemetry.Handler(nil, nil)
	if *tenantsSpec != "" || *gateway || *autoscaleOn {
		opts := []ccperf.Option{
			ccperf.WithGateway(),
			ccperf.WithReplicas(*replicas),
			ccperf.WithInstance(*instance),
		}
		if *tenantsSpec != "" {
			specs, err := tenant.LoadSpecs(*tenantsSpec)
			if err != nil {
				return fmt.Errorf("serve: -tenants: %w", err)
			}
			opts = append(opts, ccperf.WithTenants(specs))
		} else {
			ratios, err := parseRatios(*ladderSpec)
			if err != nil {
				return err
			}
			opts = append(opts, ccperf.WithSLO(*slo))
			if len(ratios) > 0 {
				opts = append(opts, ccperf.WithLadder(ratios...))
			}
		}
		if *autoscaleOn {
			opts = append(opts, ccperf.WithAutoscale(*budget, *minReplicas, *maxReplicas))
		}
		st, err := ccperf.Open(*model, opts...)
		if err != nil {
			return err
		}
		st.Start()
		g := st.Gateway()
		gh := serving.Handler(g)
		mux := http.NewServeMux()
		mux.Handle("/infer", gh)
		mux.Handle("/gateway/status", gh)
		if as := st.Autoscaler(); as != nil {
			mux.Handle("/autoscale/status", autoscale.Handler(as))
			fmt.Fprintf(os.Stderr, "serve: autoscaler up (%d–%d replicas, $%.2f/h budget, %s ticks)\n",
				*minReplicas, *maxReplicas, *budget, as.Interval())
		}
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintf(os.Stderr, "serve: gateway up (%d tenants sharing %d replicas; per-tenant rows at /gateway/status)\n",
			len(g.AllTenantStats()), g.ReplicaCount())
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (/metrics, /trace, /debug/pprof/, /debug/vars)\n", *addr)
	return http.ListenAndServe(*addr, handler)
}

// benchjsonCmd converts `go test -bench` output (stdin or -in) into a
// sample-preserving ccperf/v1 bench envelope — run the benchmarks with
// `-count N` and every repetition survives as a separate sample, which is
// what benchdiff's variance statistics need:
//
//	go test -run - -bench . -benchtime 1x -count 3 | ccperf benchjson -sha "$(git rev-parse --short HEAD)" -count 3 -out BENCH_7.json
func benchjsonCmd(args []string) error {
	fs := newFlagSet("benchjson", "convert 'go test -bench' output to a ccperf/v1 bench envelope")
	in := fs.String("in", "", "bench output file (default stdin)")
	out := fs.String("out", "", "output JSON file (default stdout)")
	sha := fs.String("sha", "", "git commit the benchmarks ran at (envelope meta)")
	benchtime := fs.String("benchtime", "", "-benchtime the runs used (envelope meta)")
	count := fs.Int("count", 0, "-count repetitions per benchmark (envelope meta)")
	note := fs.String("note", "", "free-form provenance note (envelope meta)")
	loadtest := fs.String("loadtest", "", "loadtest report envelope whose throughput/p99/stage numbers to fold in as Loadtest pseudo-benchmarks")
	fs.Parse(args)

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := telemetry.ParseBench(r)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines found")
	}
	if *loadtest != "" {
		macro, err := loadtestBenchResults(*loadtest)
		if err != nil {
			return err
		}
		results = append(results, macro...)
	}
	set := telemetry.BenchSet{
		UnixNano: time.Now().UnixNano(),
		Meta: telemetry.BenchMeta{
			GitSHA:    *sha,
			Benchtime: *benchtime,
			Count:     *count,
			Note:      *note,
		},
		Benchmarks: telemetry.CollectBench(results),
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := report.WriteEnvelope(w, report.KindBench, set); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks (%d result lines)\n", len(set.Benchmarks), len(results))
	return nil
}

// loadtestBenchResults reads a loadtest report envelope and re-expresses
// its macro numbers as pseudo-benchmark results, so the committed bench
// trajectory tracks the calibrated serving path (throughput, tail latency,
// per-stage attribution) alongside microbenchmarks.
func loadtestBenchResults(path string) ([]telemetry.BenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, err := report.ReadEnvelope(f)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	var payload struct {
		Report *serving.Report `json:"report"`
	}
	if err := env.Decode(report.KindLoadtest, &payload); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	rep := payload.Report
	if rep == nil {
		return nil, fmt.Errorf("benchjson: %s: loadtest envelope has no report", path)
	}
	results := []telemetry.BenchResult{{
		Name:       "Loadtest",
		Iterations: int64(rep.Submitted),
		Values: map[string]float64{
			"req/s":  rep.Throughput,
			"p50-ms": rep.P50MS,
			"p99-ms": rep.P99MS,
		},
	}}
	if s := rep.Stages; s != nil {
		for _, st := range []struct {
			name string
			sum  serving.StageSummary
		}{
			{"queue_wait", s.QueueWait},
			{"batch_assembly", s.BatchAssembly},
			{"nn_forward", s.NNForward},
		} {
			results = append(results, telemetry.BenchResult{
				Name:       "Loadtest/stage=" + st.name,
				Iterations: st.sum.Count,
				Values: map[string]float64{
					"mean-ms": st.sum.MeanMS,
					"p99-ms":  st.sum.P99MS,
				},
			})
		}
	}
	return results, nil
}

// benchdiffCmd compares two bench envelopes and optionally fails the run —
// the regression gate scripts/check.sh and CI put in front of the
// committed BENCH_<n>.json baseline:
//
//	ccperf benchdiff -threshold 0.5 -fail-on-regression BENCH_6.json out/bench.json
func benchdiffCmd(args []string) error {
	fs := newFlagSet("benchdiff", "compare two ccperf/v1 bench envelopes with variance-aware statistics")
	threshold := fs.Float64("threshold", 0.10, "relative delta (fraction) below which a change is never a regression")
	gatePat := fs.String("gate", benchdiff.DefaultGatePattern, "regexp of hot-path benchmarks whose regressions are fatal")
	jsonOut := fs.Bool("json", false, "emit a ccperf/v1 benchdiff envelope instead of the text table")
	failOn := fs.Bool("fail-on-regression", false, "exit non-zero when a gated benchmark regressed (or vanished)")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("benchdiff: want exactly two bench envelopes, got %d args (usage: ccperf benchdiff [flags] <old.json> <new.json>)", len(rest))
	}
	gate, err := regexp.Compile(*gatePat)
	if err != nil {
		return fmt.Errorf("benchdiff: bad -gate: %w", err)
	}
	rep, err := benchdiff.CompareFiles(rest[0], rest[1], benchdiff.Options{
		Threshold: *threshold,
		Gate:      gate,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := report.WriteEnvelope(os.Stdout, report.KindBenchdiff, rep); err != nil {
			return err
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if *failOn && rep.HasRegressions() {
		return fmt.Errorf("benchdiff: %d gated regression(s): %s",
			len(rep.Regressions)+len(rep.MissingGated),
			strings.Join(append(append([]string{}, rep.Regressions...), rep.MissingGated...), ", "))
	}
	return nil
}

// specCmd parses a model specification file, reports its per-layer cost,
// and sweeps pruning on its heaviest layer with simulated cloud timing —
// custom architectures go through the same machinery as the paper models,
// timed by the simulator's effective-FLOPs fallback.
func specCmd(args []string) error {
	fs := newFlagSet("spec", "build a custom CNN from a spec file, cost it, sweep pruning on its heaviest layer")
	path := fs.String("file", "", "model spec file (see internal/models.ParseSpec)")
	images := fs.Int64("images", 100_000, "workload for the simulated timing")
	instance := fs.String("instance", "p2.xlarge", "EC2 instance type")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("spec: -file is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	net, err := models.ParseSpec(strings.TrimSuffix(filepath.Base(*path), filepath.Ext(*path)), string(data))
	if err != nil {
		return err
	}
	if err := net.Init(1); err != nil {
		return err
	}
	inst, err := cloud.ByName(*instance)
	if err != nil {
		return err
	}
	sim := gpusim.New()

	tb := report.NewTable(fmt.Sprintf("model %q (%d parameters)", net.Name, net.Params()),
		"Layer", "Kind", "Out shape", "GFLOPs", "Params")
	var heaviest string
	var heavyFLOPs int64
	for _, lc := range net.LayerCosts() {
		tb.Row(lc.Layer.Name(), lc.Layer.Kind(), lc.Out.String(),
			fmt.Sprintf("%.3f", float64(lc.Cost.FLOPs)/1e9), lc.Cost.Params)
		if lc.Layer.Kind() == "conv" || lc.Layer.Kind() == "residual" || lc.Layer.Kind() == "inception" {
			if lc.Cost.FLOPs > heavyFLOPs {
				heavyFLOPs, heaviest = lc.Cost.FLOPs, lc.Layer.Name()
			}
		}
	}
	fmt.Println(tb.String())
	if heaviest == "" {
		return nil
	}
	// Pick the first prunable inside the heaviest block.
	target := heaviest
	if _, ok := net.PrunableByName(target); !ok {
		for _, p := range net.Prunables() {
			if strings.HasPrefix(p.Name(), heaviest) {
				target = p.Name()
				break
			}
		}
	}
	st := report.NewTable(fmt.Sprintf("pruning %s (heaviest), %d images on %s", target, *images, *instance),
		"Prune (%)", "Simulated time (s)", "Cost ($)")
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		if r > 0 {
			if err := prune.Apply(net, prune.NewDegree(target, r), prune.L1Filter); err != nil {
				return err
			}
		}
		sec, err := sim.TotalTime(gpusim.ModelRun{ModelName: net.Name, Net: net}, inst, inst.GPUs, *images)
		if err != nil {
			return err
		}
		st.Row(r*100, fmt.Sprintf("%.1f", sec), fmt.Sprintf("%.3f", sec/3600*inst.PricePerHour))
	}
	fmt.Println(st.String())
	return nil
}
