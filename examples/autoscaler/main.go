// Autoscaler: the paper's cost-accuracy trade-off as a live control loop.
// One bursty arrival trace is replayed twice through the ccperf.Open
// facade — first under a generous $/hr budget, then under a budget that
// buys exactly one replica. With money available the autoscaler buys
// capacity (scale-out) and accuracy stays at 100%; with the budget binding
// the only remaining knob is the pruning ladder, so the fleet degrades
// through the same rungs the offline planner prices (Figures 6–10, live).
//
//	go run ./examples/autoscaler
package main

import (
	"fmt"
	"log"
	"time"

	"ccperf"
	"ccperf/internal/serving"
	"ccperf/internal/workload"
)

func replay(budget float64, maxReplicas int, trace *workload.Trace) {
	st, err := ccperf.Open(ccperf.Caffenet,
		ccperf.WithLadder(0, 0.5, 0.9),
		ccperf.WithSLO(30*time.Millisecond),
		ccperf.WithDeadline(500*time.Millisecond),
		ccperf.WithAutoscale(budget, 1, maxReplicas),
		ccperf.WithAutoscaleInterval(50*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	st.Start()
	rep, err := serving.RunLoad(st.Gateway(), serving.LoadConfig{
		Trace:    trace,
		Duration: 3 * time.Second,
		Seed:     42,
		Cooldown: 300 * time.Millisecond,
	})
	st.Close()
	if err != nil {
		log.Fatal(err)
	}
	s := st.Autoscaler().Status()
	fmt.Printf("budget $%.2f/h (%s at $%.2f/h per replica):\n",
		budget, st.Instance().Name, st.Instance().PricePerHour)
	fmt.Printf("  served %d/%d, p99 %.1f ms, mean accuracy %.1f%%\n",
		rep.OK, rep.Submitted, rep.P99MS, rep.MeanAccuracy*100)
	fmt.Printf("  decisions: %d scale-outs, %d degrades, %d restores, %d scale-ins\n",
		s.ScaleOuts, s.Degrades, s.Restores, s.ScaleIns)
	row := s.Tenants[0] // a single-ladder gateway's one tenant
	fmt.Printf("  final fleet: %d replicas at ladder rung %d (%s)\n",
		s.Replicas, row.Variant, row.Degree)
	fmt.Printf("  realized cost $%.4f over %.1f replica-seconds\n\n",
		s.Cost, s.ReplicaSeconds)
}

func main() {
	// A compressed day of bursty traffic, identical for both runs.
	trace, err := workload.Generate(workload.Config{
		Pattern:    workload.Bursty,
		DailyTotal: 900,
		Windows:    12,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Money available: buy capacity, keep accuracy ==")
	replay(6.0, 6, trace) // up to 6 replicas fit under $6/h

	fmt.Println("== Budget binds: the pruning ladder absorbs the surge ==")
	replay(0.9, 6, trace) // $0.9/h = exactly one p2.xlarge
}
