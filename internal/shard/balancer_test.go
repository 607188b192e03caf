package shard

import (
	"context"
	"testing"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/fault"
	"ccperf/internal/serving"
)

// TestBalancerShiftsOnSpotSpike drives the regional loop end to end
// against a live fleet: a spot spike on us-east makes the balancer drop
// the east shards' bias (traffic shifts to cheap us-west, accuracy
// untouched), and after the spike the bias climbs back to 1.
func TestBalancerShiftsOnSpotSpike(t *testing.T) {
	sched, err := fault.ParseSchedule("spot@us-east:10+20x3")
	if err != nil {
		t.Fatal(err)
	}
	r := testFleet(t, 4, []string{"us-west", "us-east"}, nil,
		serving.Config{Replicas: 1, ExternalControl: true}, Config{})
	b, err := NewBalancer(r, autoscale.RegionalPolicy{SLOSeconds: 0.05}, sched, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Before the spike: everything holds at bias 1.
	for _, a := range b.TickAt(ctx, 5) {
		if a.Verb != autoscale.RegionHold {
			t.Fatalf("pre-spike action %+v", a)
		}
	}
	// During the spike: east shifts away, west holds; variants untouched.
	acts := b.TickAt(ctx, 15)
	var east autoscale.RegionAction
	for _, a := range acts {
		if a.Region == "us-east" {
			east = a
		} else if a.Verb != autoscale.RegionHold {
			t.Fatalf("west moved during east's spike: %+v", a)
		}
	}
	if east.Verb != autoscale.ShiftAway {
		t.Fatalf("east verb %v, want ShiftAway (%s)", east.Verb, east.Reason)
	}
	for _, st := range r.Statuses() {
		want := 1.0
		if st.Region == "us-east" {
			want = 0.5
		}
		if st.Bias != want {
			t.Fatalf("shard %d (%s) bias %v, want %v", st.Shard, st.Region, st.Bias, want)
		}
		if st.Serving.Variant != 0 {
			t.Fatalf("shard %d degraded during shift", st.Shard)
		}
	}
	// Repeated spiked ticks keep draining down to the floor, never past.
	for i := 0; i < 10; i++ {
		b.TickAt(ctx, 15)
	}
	for _, st := range r.Statuses() {
		if st.Region == "us-east" && st.Bias != 1.0/8 {
			t.Fatalf("east bias %v, want floor 1/8", st.Bias)
		}
	}
	// After the spike: bias steps back toward 1 and settles there.
	for i := 0; i < 10; i++ {
		b.TickAt(ctx, 35)
	}
	for _, st := range r.Statuses() {
		if st.Bias != 1 {
			t.Fatalf("post-spike shard %d (%s) bias %v, want 1", st.Shard, st.Region, st.Bias)
		}
	}
	if b.Last() == nil {
		t.Fatal("Last() empty after ticks")
	}
}

func TestBalancerStartStop(t *testing.T) {
	r := testFleet(t, 2, []string{"us-west"}, nil,
		serving.Config{Replicas: 1, ExternalControl: true}, Config{})
	b, err := NewBalancer(r, autoscale.RegionalPolicy{SLOSeconds: 0.05}, nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Start()
	time.Sleep(10 * time.Millisecond)
	b.Stop()
	b.Stop()
	if _, err := NewBalancer(r, autoscale.RegionalPolicy{}, nil, 0); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// TestBalancerRestartStaysStopped: Start → Stop → Start → Stop neither
// panics nor revives the loop — a stopped balancer stays stopped.
func TestBalancerRestartStaysStopped(t *testing.T) {
	r := testFleet(t, 2, []string{"us-west"}, nil,
		serving.Config{Replicas: 1, ExternalControl: true}, Config{})
	b, err := NewBalancer(r, autoscale.RegionalPolicy{SLOSeconds: 0.05}, nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Stop()
	b.Start()
	b.Stop()
	ticks := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.ticks
	}
	before := ticks()
	time.Sleep(20 * time.Millisecond)
	if after := ticks(); after != before {
		t.Fatalf("restarted balancer kept ticking: %d → %d ticks", before, after)
	}
}
