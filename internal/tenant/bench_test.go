package tenant

import (
	"context"
	"sync"
	"testing"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// BenchmarkTenantFairness measures the multi-tenant hot path end to end:
// two tenants submitting concurrently through quota admission and the
// deficit-round-robin batcher on a shared two-replica fleet. It is part
// of the benchdiff regression gate — a slowdown here means the fairness
// machinery got more expensive per request.
func BenchmarkTenantFairness(b *testing.B) {
	m, _ := testGateway(b, []Spec{
		{Name: "a", Ladder: []float64{0}, QueueCap: 512},
		{Name: "b", Ladder: []float64{0}, QueueCap: 512, Weight: 2},
	}, serving.Config{
		Replicas:     2,
		MaxBatch:     8,
		BatchTimeout: 200 * time.Microsecond,
		Tracer:       telemetry.NewTracer(64),
	})
	m.Start()
	defer m.Stop()

	names := []string{"a", "b"}
	img := testTenantImage(1)
	// Warm both tenants' replicas and workspace pools before the timed
	// region so spin-up allocations don't skew the steady-state numbers.
	for i := 0; i < 16; i++ {
		if resp := m.InferAs(context.Background(), names[i%2], img, time.Time{}); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	const workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			for i := w; i < b.N; i += workers {
				resp := m.InferAs(context.Background(), name, img, time.Time{})
				if resp.Err != nil {
					b.Error(resp.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}
