package autoscale

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/workload"
)

// testProfiles describes the 3-rung demo ladder testStack serves.
var testProfiles = map[string][]Profile{serving.DefaultTenant: testLadder}

// testStack builds an externally-controlled single-tenant gateway over a
// 3-rung demo ladder with the given SLO, plus a scaler driving it with
// the given policy, on private telemetry.
func testStack(t *testing.T, replicas int, slo time.Duration, pol Policy) (*serving.Gateway, *Scaler) {
	t.Helper()
	ladder, err := serving.DemoLadder([]float64{0, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(256)
	g, err := serving.New(serving.Config{
		Ladder: ladder, Replicas: replicas, SLO: slo, ExternalControl: true,
		Registry: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(g, Config{Policy: pol, Profiles: testProfiles, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func pump(t *testing.T, g *serving.Gateway, n int) {
	t.Helper()
	shape := serving.TinyShape
	for i := 0; i < n; i++ {
		img := serving.SyntheticImage(shape.C, shape.H, shape.W, int64(i))
		if resp := g.Infer(context.Background(), img, time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) must fail")
	}
	ladder, err := serving.DemoLadder([]float64{0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := serving.New(serving.Config{Ladder: ladder, ExternalControl: true,
		Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(8)})
	if err != nil {
		t.Fatal(err)
	}
	one := map[string][]Profile{serving.DefaultTenant: {{Speed: 1}}} // 1 profile, 2 rungs
	if _, err := New(g, Config{Profiles: one}); err == nil {
		t.Fatal("profile/ladder length mismatch must fail")
	}
	if _, err := New(g, Config{}); err == nil {
		t.Fatal("a tenant without profiles must fail")
	}
}

// TestTickScaleOutBeforeDegrade: a live surge with budget headroom buys a
// replica and leaves the ladder alone; the very next violated tick waits
// out the scale cooldown instead of panic-degrading.
func TestTickScaleOutBeforeDegrade(t *testing.T) {
	g, a := testStack(t, 1, time.Nanosecond, Policy{ // every served request violates
		Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 10},
	})
	g.Start()
	defer g.Stop()

	pump(t, g, 8)
	d := a.Tick()
	if d.Verb != "scale_out" {
		t.Fatalf("surge tick decided %s (%s), want scale_out", d.Verb, d.Reason)
	}
	if got := g.ReplicaCount(); got != 2 {
		t.Fatalf("replicas = %d after scale-out, want 2", got)
	}
	if v := g.CurrentVariant(); v != 0 {
		t.Fatalf("variant = %d, want the ladder untouched", v)
	}

	pump(t, g, 8)
	if d := a.Tick(); d.Verb != "hold" {
		t.Fatalf("tick inside cooldown decided %s, want hold", d.Verb)
	}
	if got := g.ReplicaCount(); got != 2 {
		t.Fatalf("cooldown tick moved replicas to %d", got)
	}
}

// TestTickDegradeWhenBudgetBinds: same surge, but the budget covers only
// the current fleet — the ladder moves instead of the replica count.
func TestTickDegradeWhenBudgetBinds(t *testing.T) {
	g, a := testStack(t, 1, time.Nanosecond, Policy{
		Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 1},
	})
	g.Start()
	defer g.Stop()

	pump(t, g, 8)
	d := a.Tick()
	if d.Verb != "degrade" {
		t.Fatalf("budget-bound surge decided %s (%s), want degrade", d.Verb, d.Reason)
	}
	if got := g.ReplicaCount(); got != 1 {
		t.Fatalf("replicas = %d, want the fleet unchanged", got)
	}
	if v := g.CurrentVariant(); v != 1 {
		t.Fatalf("variant = %d after degrade, want 1", v)
	}
}

// TestTickQuietScaleInAfterStreak: an idle over-provisioned fleet holds
// through the healthy streak, then returns a replica.
func TestTickQuietScaleInAfterStreak(t *testing.T) {
	g, a := testStack(t, 2, 10*time.Second, Policy{ // nothing violates
		HoldTicks: 3,
		Limits:    Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 10},
	})
	g.Start()
	defer g.Stop()

	for i := 0; i < 2; i++ {
		if d := a.Tick(); d.Verb != "hold" {
			t.Fatalf("streak tick %d decided %s, want hold", i, d.Verb)
		}
	}
	d := a.Tick()
	if d.Verb != "scale_in" {
		t.Fatalf("post-streak tick decided %s (%s), want scale_in", d.Verb, d.Reason)
	}
	if got := g.ReplicaCount(); got != 1 {
		t.Fatalf("replicas = %d after scale-in, want 1", got)
	}
	st := a.Status()
	if st.ScaleIns != 1 || st.Holds != 2 || st.Ticks != 3 {
		t.Fatalf("status counters off: %+v", st)
	}
}

// TestE2ELoadtestHoldsBudgetAndSLO is the seeded end-to-end run: a diurnal
// trace replayed against the full gateway+autoscaler stack must end with
// realized spend inside the hourly budget pro-rated over the wall clock,
// while p99 stays inside a generous SLO.
func TestE2ELoadtestHoldsBudgetAndSLO(t *testing.T) {
	const budget = 8.0 // $/hr, price $1/hr per replica, max 8
	g, a := testStack(t, 1, 50*time.Millisecond, Policy{
		// A long healthy streak (~600ms at the 20ms tick) so the fleet holds
		// through the valleys between trace windows instead of re-ramping
		// from scratch at every peak.
		HoldTicks: 30,
		Limits:    Limits{MinReplicas: 1, MaxReplicas: 8, PricePerReplicaHour: 1, BudgetPerHour: budget},
	})
	g.Start()

	// Calibrate the offered load to this machine (race instrumentation
	// slows the forward pass ~10×): aim the average at 1.5× one replica's
	// serial throughput, so the surge forces scale-out but the 8-replica
	// fleet keeps ample headroom. This also primes the capacity estimator.
	calStart := time.Now()
	pump(t, g, 10)
	perReplica := 10 / time.Since(calStart).Seconds()

	a.Start()
	defer func() { a.Stop(); g.Stop() }()

	const duration = 2 * time.Second
	total := int64(1.5 * perReplica * duration.Seconds())
	if total < 60 {
		total = 60
	}
	trace, err := workload.Generate(workload.Config{
		Pattern: workload.Diurnal, DailyTotal: total, Windows: 12, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serving.RunLoad(g, serving.LoadConfig{
		Trace: trace, Duration: duration, Seed: 42,
		Cooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatal("no request survived the run")
	}
	st := a.Status()
	if st.Ticks == 0 {
		t.Fatal("autoscaler never ticked")
	}
	// Budget gate: the realized spend may not exceed the hourly budget
	// pro-rated over the wall clock (small slack for the final accrual).
	allowed := budget / 3600 * rep.WallSeconds * 1.10
	if st.Cost > allowed {
		t.Fatalf("spent $%.6f over %.2fs, budget allows $%.6f", st.Cost, rep.WallSeconds, allowed)
	}
	if st.CostPerHour > budget+1e-9 {
		t.Fatalf("final burn rate $%.2f/hr exceeds the $%.2f/hr budget", st.CostPerHour, budget)
	}
	// SLO gate: generous (well above the 50ms policy target) so race
	// instrumentation and scheduler noise on a loaded CI box cannot flake
	// the test, but genuinely runaway latency — a control loop that never
	// reacts — still fails.
	if rep.P99MS > 1000 {
		t.Fatalf("p99 = %.1fms, want ≤ 1000ms", rep.P99MS)
	}
	if st.Replicas < 1 || st.Replicas > 8 {
		t.Fatalf("final fleet size %d outside limits", st.Replicas)
	}
}

// TestBuildProfiles derives rung profiles from the real calibrated
// predictor: monotone accuracy loss and speed gain along the ladder.
func TestBuildProfiles(t *testing.T) {
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cloud.ByName("p2.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	degrees := []prune.Degree{
		prune.Uniform([]string{"conv1", "conv2"}, 0),
		prune.Uniform([]string{"conv1", "conv2"}, 0.5),
		prune.Uniform([]string{"conv1", "conv2"}, 0.9),
	}
	profs, err := BuildProfiles(context.Background(), engine.NewCache(h), degrees, inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 3 {
		t.Fatalf("got %d profiles, want 3", len(profs))
	}
	if profs[0].Speed != 1 {
		t.Fatalf("rung 0 speed = %v, want exactly 1", profs[0].Speed)
	}
	for i := 1; i < len(profs); i++ {
		if profs[i].Speed < profs[i-1].Speed {
			t.Fatalf("speed not monotone: %v", profs)
		}
		if profs[i].Accuracy > profs[i-1].Accuracy {
			t.Fatalf("accuracy rose with pruning: %v", profs)
		}
	}
	if _, err := BuildProfiles(context.Background(), engine.NewCache(h), nil, inst, 8); err == nil {
		t.Fatal("empty degree list must fail")
	}
}

// TestStatusHandler smoke-tests the /autoscale/status endpoint shape.
func TestStatusHandler(t *testing.T) {
	g, a := testStack(t, 1, 50*time.Millisecond, Policy{
		Limits: Limits{MinReplicas: 1, MaxReplicas: 2, PricePerReplicaHour: 1, BudgetPerHour: 2},
	})
	g.Start()
	defer g.Stop()
	a.Tick()

	srv := httptest.NewServer(Handler(a))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/autoscale/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BudgetPerHour != 2 || st.Replicas != 1 || len(st.Tenants) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if row := st.Tenants[0]; row.Name != serving.DefaultTenant || row.Variant != 0 || row.Degree != g.Ladder(row.Name)[0].Degree.Label() {
		t.Fatalf("tenant row = %+v, want the default tenant at rung 0", row)
	}
	if st.LastDecision.Tick != 1 {
		t.Fatalf("last decision tick = %d, want 1", st.LastDecision.Tick)
	}
}

// TestStatusCountsArePerInstance: two autoscalers metering into one shared
// registry must not bleed decision counts into each other's Status — the
// registry aggregates across the process, Status reports this instance.
func TestStatusCountsArePerInstance(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	build := func() (*serving.Gateway, *Scaler) {
		ladder, err := serving.DemoLadder([]float64{0, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		g, err := serving.New(serving.Config{
			Ladder: ladder, Replicas: 1, SLO: 10 * time.Second, ExternalControl: true,
			Registry: reg, Tracer: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol := Policy{
			Limits: Limits{MinReplicas: 1, MaxReplicas: 2, PricePerReplicaHour: 1, BudgetPerHour: 4},
		}
		prof := map[string][]Profile{serving.DefaultTenant: {{Degree: "nonpruned", Speed: 1}, {Degree: "conv@90", Speed: 2}}}
		a, err := New(g, Config{Policy: pol, Profiles: prof})
		if err != nil {
			t.Fatal(err)
		}
		return g, a
	}
	gA, aA := build()
	gB, aB := build()
	gA.Start()
	defer gA.Stop()
	gB.Start()
	defer gB.Stop()

	aA.Tick()
	aA.Tick()
	aA.Tick()
	if got := aA.Status().Holds; got != 3 {
		t.Fatalf("A holds = %d, want 3", got)
	}
	if st := aB.Status(); st.Holds != 0 || st.Ticks != 0 {
		t.Fatalf("B inherited A's counts: %+v", st)
	}
	aB.Tick()
	if got := aB.Status().Holds; got != 1 {
		t.Fatalf("B holds = %d, want 1", got)
	}
	// The shared registry still aggregates both instances for /metrics.
	if got := reg.Counter("autoscale.hold_total").Value(); got != 4 {
		t.Fatalf("registry hold_total = %d, want 4", got)
	}
}
