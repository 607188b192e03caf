package pareto

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	a := Point{Accuracy: 0.8, Objective: 10}
	b := Point{Accuracy: 0.7, Objective: 12}
	if !Dominates(a, b) {
		t.Fatal("a must dominate b")
	}
	if Dominates(b, a) {
		t.Fatal("b must not dominate a")
	}
	if Dominates(a, a) {
		t.Fatal("a point must not dominate itself")
	}
	// Trade-off: neither dominates.
	c := Point{Accuracy: 0.9, Objective: 20}
	if Dominates(a, c) || Dominates(c, a) {
		t.Fatal("trade-off points must not dominate each other")
	}
	// Equal accuracy, better objective dominates.
	d := Point{Accuracy: 0.8, Objective: 9}
	if !Dominates(d, a) {
		t.Fatal("same accuracy, lower objective must dominate")
	}
}

func TestFrontierSimple(t *testing.T) {
	pts := []Point{
		{Accuracy: 0.9, Objective: 10, Payload: "hi-acc"},
		{Accuracy: 0.5, Objective: 2, Payload: "cheap"},
		{Accuracy: 0.7, Objective: 5, Payload: "mid"},
		{Accuracy: 0.6, Objective: 6, Payload: "dominated"}, // worse than mid
		{Accuracy: 0.9, Objective: 12, Payload: "dup-acc"},  // worse than hi-acc
	}
	fr := Frontier(pts)
	if len(fr) != 3 {
		t.Fatalf("frontier size = %d, want 3: %+v", len(fr), fr)
	}
	// Sorted by ascending accuracy.
	want := []string{"cheap", "mid", "hi-acc"}
	for i, w := range want {
		if fr[i].Payload.(string) != w {
			t.Fatalf("frontier[%d] = %v, want %v", i, fr[i].Payload, w)
		}
	}
}

func TestFrontierEmptyAndSingle(t *testing.T) {
	if Frontier(nil) != nil {
		t.Fatal("empty frontier should be nil")
	}
	one := []Point{{Accuracy: 0.5, Objective: 1}}
	if fr := Frontier(one); len(fr) != 1 {
		t.Fatalf("single-point frontier = %d", len(fr))
	}
}

func TestFrontierAllSameAccuracy(t *testing.T) {
	pts := []Point{
		{Accuracy: 0.5, Objective: 3},
		{Accuracy: 0.5, Objective: 1},
		{Accuracy: 0.5, Objective: 2},
	}
	fr := Frontier(pts)
	if len(fr) != 1 || fr[0].Objective != 1 {
		t.Fatalf("frontier = %+v, want single best", fr)
	}
}

func TestIsOptimal(t *testing.T) {
	pts := []Point{
		{Accuracy: 0.9, Objective: 10},
		{Accuracy: 0.5, Objective: 2},
	}
	if !IsOptimal(pts[0], pts) {
		t.Fatal("non-dominated point reported dominated")
	}
	bad := Point{Accuracy: 0.4, Objective: 5}
	if IsOptimal(bad, pts) {
		t.Fatal("dominated point reported optimal")
	}
}

// Property: every frontier point is non-dominated in the input, and every
// input point is dominated by or equal to some frontier point.
func TestFrontierProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Accuracy:  float64(rng.Intn(20)) / 20,
				Objective: float64(rng.Intn(50)),
				Payload:   i,
			}
		}
		fr := Frontier(pts)
		for _, p := range fr {
			if !IsOptimal(p, pts) {
				return false
			}
		}
		for _, p := range pts {
			covered := false
			for _, q := range fr {
				if q == p || Dominates(q, p) ||
					(q.Accuracy == p.Accuracy && q.Objective == p.Objective) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		// Frontier is strictly increasing in both dims.
		for i := 1; i < len(fr); i++ {
			if fr[i].Accuracy <= fr[i-1].Accuracy || fr[i].Objective <= fr[i-1].Objective {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDominates3(t *testing.T) {
	a := Point3{Accuracy: 0.8, Time: 10, Cost: 5}
	b := Point3{Accuracy: 0.7, Time: 12, Cost: 6}
	if !Dominates3(a, b) || Dominates3(b, a) {
		t.Fatal("3D dominance wrong")
	}
	if Dominates3(a, a) {
		t.Fatal("self-dominance")
	}
	// Trade-off in one dimension → no dominance.
	c := Point3{Accuracy: 0.7, Time: 5, Cost: 20}
	if Dominates3(a, c) || Dominates3(c, a) {
		t.Fatal("trade-off points must not dominate")
	}
}

func TestFrontier3(t *testing.T) {
	pts := []Point3{
		{Accuracy: 0.9, Time: 10, Cost: 10, Payload: "best-acc"},
		{Accuracy: 0.5, Time: 1, Cost: 9, Payload: "fast"},
		{Accuracy: 0.5, Time: 9, Cost: 1, Payload: "cheap"},
		{Accuracy: 0.5, Time: 10, Cost: 10, Payload: "dominated"},
		{Accuracy: 0.9, Time: 10, Cost: 10, Payload: "duplicate"},
	}
	fr := Frontier3(pts)
	if len(fr) != 3 {
		t.Fatalf("frontier3 = %d points: %+v", len(fr), fr)
	}
	names := map[string]bool{}
	for _, p := range fr {
		names[p.Payload.(string)] = true
	}
	for _, want := range []string{"best-acc", "fast", "cheap"} {
		if !names[want] {
			t.Fatalf("missing %s in %v", want, names)
		}
	}
	if Frontier3(nil) != nil {
		t.Fatal("empty frontier3")
	}
}

// Property: every Frontier3 member is non-dominated; every input point is
// dominated by or equal to some member.
func TestFrontier3Property(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point3, n)
		for i := range pts {
			pts[i] = Point3{
				Accuracy: float64(rng.Intn(10)) / 10,
				Time:     float64(rng.Intn(20)),
				Cost:     float64(rng.Intn(20)),
				Payload:  i,
			}
		}
		fr := Frontier3(pts)
		for _, p := range fr {
			for _, q := range pts {
				if Dominates3(q, p) {
					return false
				}
			}
		}
		for _, p := range pts {
			covered := false
			for _, q := range fr {
				if Dominates3(q, p) || (q.Accuracy == p.Accuracy && q.Time == p.Time && q.Cost == p.Cost) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// refFrontier is Frontier's contract stated by brute force: the points
// IsOptimal accepts, each (accuracy, objective) pair once as its first
// occurrence, in ascending accuracy.
func refFrontier(points []Point) []Point {
	var out []Point
	for i, p := range points {
		if !IsOptimal(p, points) {
			continue
		}
		first := true
		for _, q := range points[:i] {
			if q.Accuracy == p.Accuracy && q.Objective == p.Objective {
				first = false
				break
			}
		}
		if first {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Accuracy < out[b].Accuracy })
	return out
}

// Property: Frontier equals the brute-force reference point for point,
// payloads included, on inputs drawn from few accuracy and objective
// levels so that equal accuracies, equal objectives and exact duplicates
// are common.
func TestFrontierMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Accuracy:  float64(rng.Intn(6)) / 10,
				Objective: float64(rng.Intn(6)),
				Payload:   i,
			}
		}
		return reflect.DeepEqual(Frontier(pts), refFrontier(pts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// The first of exact duplicates survives, wherever it sits.
	pts := []Point{
		{Accuracy: 0.5, Objective: 2, Payload: "first"},
		{Accuracy: 0.4, Objective: 1, Payload: "low"},
		{Accuracy: 0.5, Objective: 2, Payload: "second"},
	}
	fr := Frontier(pts)
	if len(fr) != 2 || fr[1].Payload != "first" {
		t.Fatalf("Frontier = %+v, want the low point then the first duplicate", fr)
	}
}
