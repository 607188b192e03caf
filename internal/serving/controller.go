package serving

import (
	"context"
	"time"

	"ccperf/internal/telemetry"
)

// Action is one control decision.
type Action int

// Control decisions.
const (
	// Hold keeps the current variant.
	Hold Action = iota
	// Degrade moves one step toward more pruning (faster, less accurate).
	Degrade
	// Restore moves one step toward less pruning (slower, more accurate).
	Restore
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	default:
		return "hold"
	}
}

// Signal is what the controller observed over one interval.
type Signal struct {
	// P99 is the interval's p99 total latency in seconds (0 when Samples
	// is 0).
	P99 float64
	// Samples is the number of completed requests in the interval.
	Samples int
	// QueueFrac is the admission-queue fill fraction at tick time.
	QueueFrac float64
	// Healthy is the consecutive-healthy-interval count entering the tick.
	Healthy int
}

// Policy is the pure decision core of the load-adaptive pruning
// controller, separated from the goroutine so it can be tested
// deterministically. SLO fields are in seconds.
type Policy struct {
	SLOSeconds         float64
	DegradeUtilization float64 // queue fraction forcing a degrade
	RestoreFraction    float64 // healthy iff p99 < SLO·RestoreFraction
	HoldIntervals      int     // healthy intervals required per restore
}

// Decide maps one interval's signal to an action and the next healthy
// streak. A violated SLO (p99 over target, or queue pressure past the
// utilization bound) degrades immediately; restoration needs HoldIntervals
// consecutive healthy intervals — asymmetric on purpose, the classic
// fast-down/slow-up rule that keeps the fleet from oscillating.
// An idle interval (no samples) with an empty queue counts as healthy.
func (p Policy) Decide(s Signal) (Action, int) {
	violated := s.QueueFrac >= p.DegradeUtilization ||
		(s.Samples > 0 && s.P99 > p.SLOSeconds)
	if violated {
		return Degrade, 0
	}
	healthy := s.QueueFrac < p.DegradeUtilization &&
		(s.Samples == 0 || s.P99 <= p.SLOSeconds*p.RestoreFraction)
	if !healthy {
		return Hold, 0
	}
	streak := s.Healthy + 1
	if streak >= p.HoldIntervals {
		return Restore, 0
	}
	return Hold, streak
}

// policy derives the Policy from the gateway config.
func (g *Gateway) policy() Policy {
	return Policy{
		SLOSeconds:         g.cfg.SLO.Seconds(),
		DegradeUtilization: g.cfg.DegradeUtilization,
		RestoreFraction:    g.cfg.RestoreFraction,
		HoldIntervals:      g.cfg.HoldIntervals,
	}
}

// controlLoop ticks the controller until shutdown.
func (g *Gateway) controlLoop() {
	defer g.workers.Done()
	ticker := time.NewTicker(g.cfg.ControlInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.controlTick()
		case <-g.stopCh:
			return
		}
	}
}

// ControlSignal drains the first tenant's latency window (the only one of
// a single-tenant gateway) accumulated since the last call and snapshots
// its queue pressure — one control interval's observation. The gateway's
// own pruning controller consumes it, and so can an outside control loop
// such as shard.Balancer. Healthy carries the built-in controller's
// streak; an external controller keeps its own.
func (g *Gateway) ControlSignal() Signal {
	sig := g.signal(g.tenants[0])
	sig.Healthy = g.healthy
	return sig
}

// controlTick evaluates one interval and applies the decision. It is the
// unit the tests drive directly.
func (g *Gateway) controlTick() {
	sig := g.ControlSignal()
	action, streak := g.policy().Decide(sig)
	g.healthy = streak
	g.apply(action, sig)
}

// apply moves the ladder one rung (clamped at the ends) and records the
// decision: a counter per direction and one span carrying the signal that
// drove it.
func (g *Gateway) apply(action Action, sig Signal) {
	t := g.tenants[0]
	target := int(t.variant.Load())
	switch action {
	case Degrade:
		target++
	case Restore:
		target--
	}
	from, to := g.move(t, target)
	if from == to {
		return
	}
	_, finish := g.cfg.Tracer.StartSpan(context.Background(), "serving."+action.String())
	finish(
		telemetry.L("from", t.Ladder[from].Degree.Label()),
		telemetry.L("to", t.Ladder[to].Degree.Label()),
		telemetry.L("p99_seconds", sig.P99),
		telemetry.L("samples", sig.Samples),
		telemetry.L("queue_frac", sig.QueueFrac),
	)
}
