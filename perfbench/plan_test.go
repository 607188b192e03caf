package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"ccperf"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_golden.json from the current planner")

// TestPlanGolden checks the embedded golden outputs against a fresh
// planner; with -update it records them instead.
func TestPlanGolden(t *testing.T) {
	ctx := context.Background()
	p, err := ccperf.NewPlanner(ccperf.Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	var got planGolden
	for i := range planPairs {
		n, tf, cf, err := p.Frontiers(ctx, pairRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		got.Pairs = append(got.Pairs, frontierResult{Feasible: n, Time: toPoints(tf), Cost: toPoints(cf)})
	}
	a, err := p.Allocate(ctx, pairRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.AllocateExhaustive(ctx, pairRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	got.Alloc, got.Exhaustive = toOutcome(a), toOutcome(e)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/plan_golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	tie := func(msg string) { t.Log("tie:", msg) }
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for i := range planPairs {
		if err := got.Pairs[i].diff(want.Pairs[i], tie); err != nil {
			t.Errorf("pair %d: %v", i, err)
		}
	}
	if err := got.Alloc.diff(want.Alloc, tie); err != nil {
		t.Errorf("Allocate: %v", err)
	}
	if err := got.Exhaustive.diff(want.Exhaustive, tie); err != nil {
		t.Errorf("AllocateExhaustive: %v", err)
	}
	if want.Alloc.Ops != 106 || want.Exhaustive.Ops != 30660 {
		t.Errorf("golden evaluation counts %d/%d, want 106/30660", want.Alloc.Ops, want.Exhaustive.Ops)
	}
}
