package serving

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

func benchGateway(b *testing.B, cfg Config) *Gateway {
	b.Helper()
	if cfg.Ladder == nil {
		ladder, err := DemoLadder([]float64{0, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Ladder = ladder
	}
	cfg.Registry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(64)
	g, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// warmGateway pushes n requests through the gateway before the timed
// region so one-time costs — replica spin-up, workspace-pool minting,
// size-bucket fills — don't pollute the steady-state B/op and allocs/op
// numbers (which would otherwise swing with -benchtime/-count as the
// constant amortizes over a different b.N).
func warmGateway(b *testing.B, g *Gateway, img *tensor.Tensor, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		ch, err := g.Submit(context.Background(), img, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkBatcher measures coalescing overhead: cost per request of the
// queue→batch→forward→respond cycle at each batch size, against a single
// replica fed exactly one batch at a time.
func BenchmarkBatcher(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			g := benchGateway(b, Config{
				Replicas: 1, MaxBatch: batch, QueueCap: batch * 2,
				BatchTimeout: 50 * time.Microsecond,
			})
			g.Start()
			defer g.Stop()
			img := SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, 1)
			chans := make([]<-chan Response, batch)
			warmGateway(b, g, img, 2*batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range chans {
					ch, err := g.Submit(context.Background(), img, time.Time{})
					if err != nil {
						b.Fatal(err)
					}
					chans[j] = ch
				}
				for _, ch := range chans {
					if resp := <-ch; resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
			b.StopTimer()
			reqs := float64(b.N * batch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
		})
	}
}

// BenchmarkGatewayThroughput saturates the gateway from a single producer
// and reports sustained requests/second through the full admission → batch
// → forward path.
func BenchmarkGatewayThroughput(b *testing.B) {
	g := benchGateway(b, Config{
		Replicas: 2, MaxBatch: 8, QueueCap: 128,
		BatchTimeout: 200 * time.Microsecond,
	})
	g.Start()
	defer g.Stop()
	img := SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, 2)
	warmGateway(b, g, img, 32)
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan Response, b.N)
	submitted, absorbed := 0, 0
	for submitted < b.N {
		ch, err := g.Submit(context.Background(), img, time.Time{})
		if err != nil {
			// Queue full: absorb a completion, then retry.
			<-done
			absorbed++
			continue
		}
		submitted++
		go func() { done <- <-ch }()
	}
	for ; absorbed < submitted; absorbed++ {
		<-done
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}
