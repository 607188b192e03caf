package serving

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

// testLadder builds a short demo ladder with an isolated registry/tracer.
func testLadder(t testing.TB, ratios ...float64) []Variant {
	t.Helper()
	if len(ratios) == 0 {
		ratios = []float64{0, 0.9}
	}
	ladder, err := DemoLadder(ratios)
	if err != nil {
		t.Fatal(err)
	}
	return ladder
}

func testGateway(t testing.TB, cfg Config) *Gateway {
	t.Helper()
	if cfg.Ladder == nil && cfg.Tenants == nil {
		cfg.Ladder = testLadder(t)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(256)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testImage(seed int64) *tensor.Tensor {
	return SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, seed)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for empty ladder")
	}
	if _, err := New(Config{Ladder: []Variant{{}}}); err == nil {
		t.Fatal("expected error for nil variant net")
	}
}

func TestInferReturnsClassAndVariant(t *testing.T) {
	g := testGateway(t, Config{})
	g.Start()
	defer g.Stop()
	resp := g.Infer(context.Background(), testImage(1), time.Time{})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Class < 0 || resp.Class >= TinyClasses {
		t.Fatalf("class %d out of range", resp.Class)
	}
	if resp.Variant != 0 || resp.Degree != "nonpruned" {
		t.Fatalf("fresh gateway should serve variant 0, got %d (%s)", resp.Variant, resp.Degree)
	}
	if resp.Accuracy <= 0 {
		t.Fatalf("accuracy proxy = %v", resp.Accuracy)
	}
	if resp.Batch < 1 || resp.Total <= 0 {
		t.Fatalf("batch=%d total=%v", resp.Batch, resp.Total)
	}
}

func TestDeterministicClassAcrossSubmissions(t *testing.T) {
	// A generous SLO pins the ladder at variant 0: on a loaded machine the
	// default 50ms target can degrade between the two submissions, and a
	// pruned variant legitimately classifies differently — this test is
	// about determinism of the forward path, not ladder stability.
	g := testGateway(t, Config{SLO: time.Hour})
	g.Start()
	defer g.Stop()
	a := g.Infer(context.Background(), testImage(7), time.Time{})
	b := g.Infer(context.Background(), testImage(7), time.Time{})
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Class != b.Class {
		t.Fatalf("same image classified %d then %d", a.Class, b.Class)
	}
}

func TestBatchCoalescing(t *testing.T) {
	// One replica, batch up to 16 with a generous timeout: submissions
	// parked while the replica is busy must coalesce into shared batches.
	g := testGateway(t, Config{
		Replicas: 1, MaxBatch: 16, QueueCap: 64,
		BatchTimeout: 20 * time.Millisecond,
	})
	g.Start()
	defer g.Stop()
	const n = 32
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	maxBatch := 0
	for _, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Batch > maxBatch {
			maxBatch = resp.Batch
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed: max batch %d", maxBatch)
	}
	if maxBatch > 16 {
		t.Fatalf("batch %d exceeds MaxBatch", maxBatch)
	}
}

func TestLoadSheddingOnFullQueue(t *testing.T) {
	// Gateway not started: nothing consumes the queue, so QueueCap
	// submissions are admitted and the next is shed deterministically.
	g := testGateway(t, Config{QueueCap: 4})
	for i := 0; i < 4; i++ {
		if _, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := g.Submit(context.Background(), testImage(99), time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	st := g.Stats()
	if st.Admitted != 4 || st.Shed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	g.Start()
	g.Stop()
}

func TestExpiredRequestsDroppedBeforeDispatch(t *testing.T) {
	g := testGateway(t, Config{QueueCap: 8})
	// Enqueue with an already-passed deadline before starting the
	// replicas, so expiry is checked at dispatch.
	ch, err := g.Submit(context.Background(), testImage(1), time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	resp := <-ch
	if !errors.Is(resp.Err, ErrExpired) {
		t.Fatalf("expected ErrExpired, got %v", resp.Err)
	}
	if got := g.Stats().Expired; got != 1 {
		t.Fatalf("expired counter = %d", got)
	}
}

func TestDefaultDeadlineApplied(t *testing.T) {
	g := testGateway(t, Config{QueueCap: 8, Deadline: time.Nanosecond})
	ch, err := g.Submit(context.Background(), testImage(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // let the 1ns default deadline lapse
	g.Start()
	defer g.Stop()
	if resp := <-ch; !errors.Is(resp.Err, ErrExpired) {
		t.Fatalf("expected ErrExpired from default deadline, got %v", resp.Err)
	}
}

func TestStopDrainsQueuedRequests(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1, QueueCap: 32, MaxBatch: 4})
	chans := make([]<-chan Response, 0, 16)
	for i := 0; i < 16; i++ {
		ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	g.Start()
	g.Stop()
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
		default:
			t.Fatalf("request %d never answered after Stop", i)
		}
	}
	if _, err := g.Submit(context.Background(), testImage(0), time.Time{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("expected ErrStopped, got %v", err)
	}
}

func TestStopWithoutStartAnswersQueued(t *testing.T) {
	g := testGateway(t, Config{QueueCap: 4})
	ch, err := g.Submit(context.Background(), testImage(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if resp := <-ch; !errors.Is(resp.Err, ErrStopped) {
		t.Fatalf("expected ErrStopped, got %v", resp.Err)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		g := testGateway(t, Config{Replicas: 3, QueueCap: 32})
		g.Start()
		for i := 0; i < 40; i++ {
			g.Submit(context.Background(), testImage(int64(i)), time.Time{}) // responses intentionally unread (buffered)
		}
		g.Stop()
	}
	// Allow the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after Stop", before, runtime.NumGoroutine())
}

func TestPrunedVariantsShrinkWork(t *testing.T) {
	// The ladder's premise: more pruning ⇒ genuinely cheaper forward.
	ladder := testLadder(t, 0, 0.9)
	img := testImage(3)
	timeOf := func(v Variant) time.Duration {
		start := time.Now()
		for i := 0; i < 5; i++ {
			v.Net.Forward(img, nil)
		}
		return time.Since(start)
	}
	full, pruned := timeOf(ladder[0]), timeOf(ladder[1])
	if pruned >= full {
		t.Logf("warning: pruned forward %v not faster than full %v (timing noise?)", pruned, full)
	}
	if ladder[1].Accuracy >= ladder[0].Accuracy {
		t.Fatalf("accuracy proxy should fall along the ladder: %v vs %v",
			ladder[1].Accuracy, ladder[0].Accuracy)
	}
}
