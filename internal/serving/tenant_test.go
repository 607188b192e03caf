package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ccperf/internal/fault"
	"ccperf/internal/workload"
)

func TestClassifyUnwraps(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OutcomeOK},
		{ErrOverloaded, OutcomeShed},
		{fmt.Errorf("router: %w", ErrOverloaded), OutcomeShed},
		{ErrExpired, OutcomeExpired},
		{fmt.Errorf("a: %w", fmt.Errorf("b: %w", ErrExpired)), OutcomeExpired},
		{fmt.Errorf("shard 2: %w", ErrFaulted), OutcomeFaulted},
		{ErrStopped, OutcomeStopped},
		{fmt.Errorf("drain: %w", ErrStopped), OutcomeStopped},
		{fmt.Errorf("%w: tenant a over 5 req/s", ErrQuotaExceeded), OutcomeRejected},
		{fmt.Errorf("%w: %q", ErrUnknownTenant, "ghost"), OutcomeOther},
		{context.DeadlineExceeded, OutcomeOther},
		{errors.New("anything else"), OutcomeOther},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if OutcomeOK.String() != "ok" || OutcomeOther.String() != "other" {
		t.Fatalf("outcome names: %q %q", OutcomeOK, OutcomeOther)
	}
}

func TestTenantConfigValidation(t *testing.T) {
	ladder := testLadder(t, 0)
	for name, cfg := range map[string]Config{
		"both":      {Ladder: ladder, Tenants: []Tenant{{Name: "a", Ladder: ladder}}},
		"unnamed":   {Tenants: []Tenant{{Ladder: ladder}}},
		"duplicate": {Tenants: []Tenant{{Name: "a", Ladder: ladder}, {Name: "a", Ladder: ladder}}},
		"no ladder": {Tenants: []Tenant{{Name: "a"}}},
		"nil net":   {Tenants: []Tenant{{Name: "a", Ladder: []Variant{{}}}}},
		"negative":  {Tenants: []Tenant{{Name: "a", Ladder: ladder, QPS: -1}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected a config error", name)
		}
	}
	g := testGateway(t, Config{QueueCap: 7, Deadline: time.Second, SLO: time.Minute,
		Tenants: []Tenant{{Name: "a", Ladder: ladder}, {Name: "b", Ladder: ladder, QueueCap: 3, Weight: 2}}})
	if rows := g.AllTenantStats(); len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("tenant rows out of declaration order: %+v", rows)
	}
	a, b := g.TenantStats("a"), g.TenantStats("b")
	if a.QueueCap != 7 || a.Weight != 1 || a.SLOMS != 60000 || b.QueueCap != 3 || b.Weight != 2 {
		t.Fatalf("inherited defaults: a=%+v b=%+v", a, b)
	}
	if _, err := g.Submit(context.Background(), testImage(1), time.Time{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Submit on a gateway without DefaultTenant: %v", err)
	}
}

func TestBucketAdmission(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(10, 2) // 10/s, burst 2

	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst of 2 should admit two immediately")
	}
	if b.allow(now) {
		t.Fatal("third immediate request should be rejected")
	}
	// 100ms refills exactly one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("one token should have refilled")
	}
	if b.allow(now) {
		t.Fatal("bucket should be empty again")
	}
	// A long idle period caps at the burst, not the elapsed rate.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst should refill after idle")
	}
	if b.allow(now) {
		t.Fatal("refill must cap at burst")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := newBucket(0, 0)
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if !b.allow(now) {
			t.Fatal("rate 0 means unlimited")
		}
	}
}

// TestTenantsGetBreakersAndPooledWorkspaces: multi-tenant traffic runs the
// same replica loop as single-tenant traffic, so a crashed replica opens
// its breaker and tenant batches run on the pooled, allocation-free
// forward path.
func TestTenantsGetBreakersAndPooledWorkspaces(t *testing.T) {
	// GC off for the measurement: the workspace pool is a sync.Pool, which
	// may drop idle workspaces at a collection, and the assertion is about
	// the forward path, not the collector. A -race build drops pool items
	// on purpose, so there the plateau is not checked (raceEnabled).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	faults, err := fault.ParseSchedule("crash@0:0+3600,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	g := testGateway(t, Config{
		Replicas: 2, MaxBatch: 4, BatchTimeout: time.Millisecond,
		RetryBackoff: time.Millisecond, MaxRetries: 8,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Injector: faults,
		Tenants: []Tenant{
			{Name: "a", Ladder: testLadder(t, 0, 0.9)},
			{Name: "b", Ladder: testLadder(t, 0.5), Weight: 2},
		},
	})
	g.Start()
	defer g.Stop()

	round := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			name := []string{"a", "b"}[i%2]
			ch, err := g.SubmitAs(context.Background(), name, testImage(int64(i)), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp := <-ch; resp.Err != nil {
					errs <- fmt.Errorf("tenant %s: %w", name, resp.Err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	round(64) // warm: open the crashed replica's breaker, size the workspaces
	st := g.Stats()
	if st.BreakerOpens == 0 {
		t.Fatalf("crashed replica never opened its breaker: %+v", st)
	}
	if st.Faulted == 0 || st.Retries == 0 {
		t.Fatalf("crash never exercised the retry path: %+v", st)
	}
	warm := st.WsAllocs
	round(64)
	st = g.Stats()
	if st.WsAllocs != warm && !raceEnabled {
		t.Fatalf("workspace allocations grew from %d to %d over warm traffic", warm, st.WsAllocs)
	}
	if st.WsGets == 0 {
		t.Fatal("tenant batches bypassed the workspace pool")
	}
	if a, b := g.TenantStats("a"), g.TenantStats("b"); a.Served != 64 || b.Served != 64 {
		t.Fatalf("served a=%d b=%d, want 64 each", a.Served, b.Served)
	}
}

// TestRunLoadAccountsEveryRequest: under chaos every submitted request
// lands in exactly one outcome bucket.
func TestRunLoadAccountsEveryRequest(t *testing.T) {
	faults, err := fault.ParseSchedule("crash@1:0+3600,err:0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	g := testGateway(t, Config{
		Replicas: 2, QueueCap: 8, MaxBatch: 4, MaxRetries: 1,
		RetryBackoff: time.Millisecond, Injector: faults,
	})
	g.Start()
	trace, err := workload.Generate(workload.Config{Pattern: workload.Bursty, DailyTotal: 200, Windows: 4, Seed: 2, BurstProb: 0.5, BurstScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(g, LoadConfig{Trace: trace, Duration: 200 * time.Millisecond, Seed: 5, Deadline: time.Second})
	g.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Served() + rep.Shed + rep.Expired + rep.Faulted + rep.Stopped + rep.Rejected + rep.Other; got != rep.Submitted {
		t.Fatalf("outcomes sum to %d, submitted %d: %+v", got, rep.Submitted, rep)
	}
	if rep.Faulted+rep.Shed == 0 && g.Stats().Retries == 0 {
		t.Fatalf("chaos left no trace in the report: %+v", rep)
	}
}
