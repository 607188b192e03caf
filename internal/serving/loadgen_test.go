package serving

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
	"ccperf/internal/workload"
)

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOverloadShedsAndDegradesThenRestores is the acceptance scenario:
// sustained overload must engage load shedding (bounded queue) and drive
// the controller down the ladder; recovery must bring it back up.
func TestOverloadShedsAndDegradesThenRestores(t *testing.T) {
	g := testGateway(t, Config{
		Ladder:          testLadder(t, 0, 0.9),
		Replicas:        1,
		QueueCap:        16,
		MaxBatch:        4,
		BatchTimeout:    time.Millisecond,
		SLO:             5 * time.Millisecond,
		ControlInterval: 10 * time.Millisecond,
		HoldIntervals:   2,
	})
	g.Start()
	defer g.Stop()

	// Overload phase: open-loop flood, much faster than one replica can
	// drain. Keep the pressure on until the controller reacts.
	floodUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(floodUntil) {
		for i := 0; i < 20; i++ {
			g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		}
		st := g.Stats()
		if st.Degrades >= 1 && st.Shed >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := g.Stats()
	if st.Shed == 0 {
		t.Fatal("bounded queue never shed under sustained overload")
	}
	if st.Degrades == 0 {
		t.Fatal("controller never degraded under sustained overload")
	}
	if g.CurrentVariant() == 0 {
		t.Fatal("still serving the unpruned variant under overload")
	}

	// Recovery phase: stop submitting; idle healthy intervals must walk
	// the ladder back to the accurate end.
	waitUntil(t, 5*time.Second, "restoration", func() bool {
		return g.Stats().Restores >= 1 && g.CurrentVariant() == 0
	})
}

func TestRunLoadReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := testGateway(t, Config{
		Ladder:          testLadder(t, 0, 0.5, 0.9),
		Replicas:        2,
		QueueCap:        32,
		MaxBatch:        8,
		BatchTimeout:    time.Millisecond,
		SLO:             20 * time.Millisecond,
		ControlInterval: 10 * time.Millisecond,
		Registry:        reg,
	})
	g.Start()
	trace, err := workload.Generate(workload.Config{
		Pattern: workload.Bursty, DailyTotal: 300, Windows: 6, Seed: 4,
		BurstProb: 0.5, BurstScale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(g, LoadConfig{
		Trace:    trace,
		Duration: 300 * time.Millisecond,
		Seed:     11,
		Deadline: 2 * time.Second,
		Cooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Stop()

	if int64(rep.Submitted) != trace.Total() {
		t.Fatalf("submitted %d, trace total %d", rep.Submitted, trace.Total())
	}
	if rep.Served()+rep.Shed+rep.Expired != rep.Submitted {
		t.Fatalf("outcomes don't add up: %+v", rep)
	}
	if got := rep.Served() + rep.Shed + rep.Expired + rep.Faulted + rep.Stopped + rep.Rejected + rep.Other; got != rep.Submitted {
		t.Fatalf("outcome buckets sum to %d, submitted %d", got, rep.Submitted)
	}
	if rep.OK == 0 {
		t.Fatal("no request served")
	}
	var perVariant int
	for _, n := range rep.PerVariant {
		perVariant += n
	}
	if perVariant != rep.Served() {
		t.Fatalf("per-variant %v sums to %d, want %d", rep.PerVariant, perVariant, rep.Served())
	}
	if rep.P99MS < rep.P50MS || rep.MaxMS < rep.P99MS {
		t.Fatalf("percentiles disordered: %+v", rep)
	}
	if rep.MeanAccuracy <= 0 || rep.MeanAccuracy > 1 {
		t.Fatalf("mean accuracy proxy = %v", rep.MeanAccuracy)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput)
	}
	if s := rep.String(); len(s) == 0 {
		t.Fatal("empty report rendering")
	}
	// The gateway's own registry carried the run's counters.
	snap := reg.Snapshot()
	if snap.Counters["serving.admitted_total"] == 0 || snap.Counters["serving.served_total"] == 0 {
		t.Fatalf("registry counters missing: %v", snap.Counters)
	}
}

func TestRunLoadValidation(t *testing.T) {
	g := testGateway(t, Config{})
	if _, err := RunLoad(g, LoadConfig{}); err == nil {
		t.Fatal("expected error for missing trace")
	}
	tr := &workload.Trace{Windows: []int64{1}}
	if _, err := RunLoad(g, LoadConfig{Trace: tr}); err == nil {
		t.Fatal("expected error for missing duration")
	}
}

// TestLoadTestLeavesNoGoroutines wraps a whole loadtest cycle and checks
// the goroutine count returns to baseline — the leak gate the race smoke
// in scripts/check.sh relies on.
func TestLoadTestLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGateway(t, Config{Replicas: 2, QueueCap: 32})
	g.Start()
	trace, err := workload.Generate(workload.Config{Pattern: workload.Uniform, DailyTotal: 100, Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(g, LoadConfig{Trace: trace, Duration: 100 * time.Millisecond, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after loadtest", before, runtime.NumGoroutine())
}

// TestReplayLatencyCountsGeneratorLag: latency runs from the scheduled
// arrival, so a submit that holds the generator for d delays the arrival
// scheduled behind it by at least d, although that arrival's own submit
// answers at once.
func TestReplayLatencyCountsGeneratorLag(t *testing.T) {
	const d = 30 * time.Millisecond
	ladder := testLadder(t)
	run := Replay[Response]{
		Schedule: []Arrival{{At: 0, Tenant: "blocked"}, {At: 0, Tenant: "next"}},
		Tracer:   telemetry.NewTracer(16),
		Ladder:   func(string) []Variant { return ladder },
		Submit: func(_ context.Context, i int, _ *tensor.Tensor, _ time.Time) (<-chan Response, error) {
			if i == 0 {
				time.Sleep(d)
			}
			ch := make(chan Response, 1)
			ch <- Response{ID: int64(i), Accuracy: 1}
			return ch, nil
		},
	}.Run()
	next := run.Tenants["next"]
	if run.Total.OK != 2 || next.OK != 1 {
		t.Fatalf("tally %+v, next %+v", run.Total, next)
	}
	if got := time.Duration(next.MaxMS * float64(time.Millisecond)); got < d {
		t.Fatalf("next arrival's latency %v, want at least the generator's %v lag", got, d)
	}
}

// TestRunLoadReturnsWhenStoppedMidReplay: a gateway stopped under a
// replay refuses the remaining arrivals; the replay still returns with
// every request in one bucket.
func TestRunLoadReturnsWhenStoppedMidReplay(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1, QueueCap: 16})
	g.Start()
	trace, err := workload.Generate(workload.Config{Pattern: workload.Uniform, DailyTotal: 200, Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() {
		g.Stop()
		close(stopped)
	})
	rep, err := RunLoad(g, LoadConfig{Trace: trace, Duration: 400 * time.Millisecond, Seed: 3})
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped == 0 {
		t.Fatalf("no arrival after Stop was refused: %+v", rep.Tally)
	}
	if got := rep.Served() + rep.Shed + rep.Expired + rep.Faulted + rep.Stopped + rep.Rejected + rep.Other; got != rep.Submitted {
		t.Fatalf("outcome buckets sum to %d, submitted %d", got, rep.Submitted)
	}
}
