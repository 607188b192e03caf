package main

import (
	"fmt"

	"ccperf"
	"ccperf/internal/autoscale"
)

// reportFleet prints the fleet's bill after a loadtest — with an
// autoscaler, its decisions, each tenant's final rung and attributed cost,
// and the realized spend; without one, the static fleet's rental — and
// returns the autoscaler's status for -report-out and budgetGate (nil
// without one). Single- and multi-tenant loadtests share it.
func reportFleet(st *ccperf.Stack) *autoscale.Status {
	inst := st.Instance()
	as := st.Autoscaler()
	if as == nil {
		repSec := st.Gateway().ReplicaSeconds()
		fmt.Printf("cost     : $%.4f (%.1f replica-seconds of %s at $%.2f/h)\n",
			inst.PricePerSecond()*repSec, repSec, inst.Name, inst.PricePerHour)
		return nil
	}
	s := as.Status()
	lim := as.Policy().Limits
	fmt.Printf("autoscale: %d ticks: %d scale-outs, %d scale-ins, %d degrades, %d restores\n",
		s.Ticks, s.ScaleOuts, s.ScaleIns, s.Degrades, s.Restores)
	fmt.Printf("fleet    : %d replicas final (allowed %d–%d); last: %s\n",
		s.Replicas, lim.MinReplicas, lim.MaxReplicas, s.LastDecision.Reason)
	for _, t := range s.Tenants {
		fmt.Printf("tenant   : %-10s rung %d (%s), share %.0f%%, $%.4f attributed, $%.2f/M on-time (%d on-time)\n",
			t.Name, t.Variant, t.Degree, t.Share*100, t.CostUSD, t.DollarsPerMillionOnTime, t.OnTime)
	}
	if s.DegradedFirst != "" {
		fmt.Printf("degrade  : %s first; next in line: %v\n", s.DegradedFirst, s.DegradeOrder)
	}
	fmt.Printf("cost     : $%.4f realized (%.1f replica-seconds of %s; budget $%.2f/h)\n",
		s.Cost, s.ReplicaSeconds, inst.Name, s.BudgetPerHour)
	return &s
}

// budgetGate fails a run whose realized spend exceeds the hourly budget
// pro-rated over its wall clock (5% slack covers the final partial tick).
// A nil status (no autoscaler) or a zero budget is no gate.
func budgetGate(s *autoscale.Status, budget, wallSeconds float64) error {
	if s == nil || budget <= 0 {
		return nil
	}
	if allowed := budget / 3600 * wallSeconds * 1.05; s.Cost > allowed {
		return fmt.Errorf("loadtest: realized cost $%.4f exceeds the $%.2f/h budget over %.2fs ($%.4f allowed)",
			s.Cost, budget, wallSeconds, allowed)
	}
	return nil
}
