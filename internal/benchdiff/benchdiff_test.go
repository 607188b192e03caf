package benchdiff

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccperf/internal/report"
	"ccperf/internal/telemetry"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{100, 110, 90})
	if s.N != 3 || s.Mean != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Stddev-10) > 1e-9 {
		t.Fatalf("stddev = %v, want 10", s.Stddev)
	}
	if s := Summarize([]float64{42}); s.N != 1 || s.Mean != 42 || s.Stddev != 0 {
		t.Fatalf("single sample: %+v", s)
	}
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
}

func TestWelchSignificance(t *testing.T) {
	// Tight samples, clearly separated means: significant.
	tight := compareOne("BenchmarkX", "ns/op",
		[]float64{100, 101, 99}, []float64{150, 151, 149}, 0.10)
	if !tight.Tested || !tight.Significant || !tight.Worse {
		t.Fatalf("separated samples must be a significant worsening: %+v", tight)
	}
	// Huge overlapping variance, tiny mean shift: not significant.
	noisy := compareOne("BenchmarkX", "ns/op",
		[]float64{50, 150, 100}, []float64{55, 160, 105}, 0.10)
	if !noisy.Tested || noisy.Significant {
		t.Fatalf("noise must not be significant: %+v", noisy)
	}
	// Single samples: fallback threshold rule, no t-test.
	single := compareOne("BenchmarkX", "ns/op", []float64{100}, []float64{130}, 0.10)
	if single.Tested || !single.Significant || !single.Worse {
		t.Fatalf("single-sample fallback: %+v", single)
	}
	below := compareOne("BenchmarkX", "ns/op", []float64{100}, []float64{105}, 0.10)
	if below.Significant {
		t.Fatalf("5%% move under a 10%% threshold must not count: %+v", below)
	}
	// Zero variance both sides (allocs/op style): fallback too — but the
	// move must clear the allocation-unit noise floor to count.
	det := compareOne("BenchmarkX", "allocs/op",
		[]float64{12, 12, 12}, []float64{60, 60, 60}, 0.10)
	if det.Tested || !det.Significant || det.DeltaPct != 400 {
		t.Fatalf("deterministic unit fallback: %+v", det)
	}
	subFloor := compareOne("BenchmarkX", "allocs/op",
		[]float64{12, 12, 12}, []float64{24, 24, 24}, 0.10)
	if subFloor.Significant {
		t.Fatalf("+12 allocs/op is under the noise floor: %+v", subFloor)
	}
}

// TestTCriticalInterpolation pins the t-table lookup: exact at integer
// df, linearly interpolated between entries (Welch df is real-valued),
// monotone non-increasing, normal limit past df 31.
func TestTCriticalInterpolation(t *testing.T) {
	if got := tCritical95(2); got != 4.303 {
		t.Fatalf("df=2: %v", got)
	}
	mid := tCritical95(2.5)
	if mid >= 4.303 || mid <= 3.182 {
		t.Fatalf("df=2.5 must interpolate between table entries: %v", mid)
	}
	if lo, hi := tCritical95(2.97), tCritical95(2.03); lo >= hi {
		t.Fatalf("interpolation not monotone: crit(2.97)=%v >= crit(2.03)=%v", lo, hi)
	}
	if got := tCritical95(0.5); got != 12.706 {
		t.Fatalf("df<1 clamps to the first entry: %v", got)
	}
	if got := tCritical95(200); got != 1.960 {
		t.Fatalf("large df uses the normal limit: %v", got)
	}
}

func TestDirection(t *testing.T) {
	up := compareOne("BenchmarkGatewayThroughput", "req/s",
		[]float64{900, 910, 890}, []float64{700, 710, 690}, 0.10)
	if !up.Worse {
		t.Fatalf("req/s dropping must be worse: %+v", up)
	}
	down := compareOne("BenchmarkEnumerate", "ns/op",
		[]float64{900, 910, 890}, []float64{700, 710, 690}, 0.10)
	if down.Worse {
		t.Fatalf("ns/op dropping is an improvement: %+v", down)
	}
}

func set(meta telemetry.BenchMeta, series ...telemetry.BenchSeries) *telemetry.BenchSet {
	results := make([]telemetry.BenchResult, 0)
	for _, s := range series {
		n := 0
		for _, vals := range s.Values {
			if len(vals) > n {
				n = len(vals)
			}
		}
		for i := 0; i < n; i++ {
			r := telemetry.BenchResult{Name: s.Name, Iterations: 1, Values: map[string]float64{}}
			for unit, vals := range s.Values {
				if i < len(vals) {
					r.Values[unit] = vals[i]
				}
			}
			results = append(results, r)
		}
	}
	return &telemetry.BenchSet{Meta: meta, Benchmarks: telemetry.CollectBench(results)}
}

func ser(name, unit string, vals ...float64) telemetry.BenchSeries {
	return telemetry.BenchSeries{Name: name, Values: map[string][]float64{unit: vals}}
}

func TestCompareGatedRegression(t *testing.T) {
	old := set(telemetry.BenchMeta{GitSHA: "aaaaaaa"},
		ser("BenchmarkEnumerate/subs=uncached", "ns/op", 1000, 1010, 990),
		ser("BenchmarkHelper", "ns/op", 100, 101, 99),
	)
	// Injected 2x regression in a gated hot path; helper regresses too but
	// is ungated, so it must not fail the run.
	niu := set(telemetry.BenchMeta{GitSHA: "bbbbbbb"},
		ser("BenchmarkEnumerate/subs=uncached", "ns/op", 2000, 2020, 1980),
		ser("BenchmarkHelper", "ns/op", 300, 303, 297),
	)
	rep := Compare(old, niu, Options{Threshold: 0.10})
	if !rep.HasRegressions() {
		t.Fatal("2x gated regression must fail")
	}
	if len(rep.Regressions) != 1 || !strings.HasPrefix(rep.Regressions[0], "BenchmarkEnumerate/subs=uncached") {
		t.Fatalf("regressions = %v", rep.Regressions)
	}
	var helper *Row
	for i := range rep.Rows {
		if rep.Rows[i].Name == "BenchmarkHelper" {
			helper = &rep.Rows[i]
		}
	}
	if helper == nil || helper.Gated || helper.Regression || !helper.Worse {
		t.Fatalf("ungated helper row = %+v", helper)
	}
}

func TestCompareImprovementAndNoise(t *testing.T) {
	old := set(telemetry.BenchMeta{},
		ser("BenchmarkBatcher/batch=4", "ns/op", 1000, 1010, 990),
		ser("BenchmarkMatmul", "ns/op", 500, 800, 600),
	)
	niu := set(telemetry.BenchMeta{},
		ser("BenchmarkBatcher/batch=4", "ns/op", 500, 505, 495), // 2x faster
		ser("BenchmarkMatmul", "ns/op", 520, 830, 620),          // within noise
	)
	rep := Compare(old, niu, Options{Threshold: 0.10})
	if rep.HasRegressions() {
		t.Fatalf("improvement + noise flagged as regression: %v", rep.Regressions)
	}
	for _, row := range rep.Rows {
		if row.Name == "BenchmarkBatcher/batch=4" && (row.Worse || !row.Significant) {
			t.Fatalf("improvement row = %+v", row)
		}
		if row.Name == "BenchmarkMatmul" && row.Significant {
			t.Fatalf("noisy row must not be significant: %+v", row)
		}
	}
}

// TestAllocNoiseFloor pins the absolute floor on allocation units: with a
// zero-alloc steady state, B/op and allocs/op carry benchmark-setup
// constants amortized over b.N, so a 60→120 B/op "doubling" between runs
// at different -benchtime is an artifact, while a real KB-scale leak must
// still gate.
func TestAllocNoiseFloor(t *testing.T) {
	old := set(telemetry.BenchMeta{},
		ser("BenchmarkGatewayThroughput", "B/op", 60),
		ser("BenchmarkGatewayThroughput", "allocs/op", 2),
		ser("BenchmarkBatcher/batch=4", "B/op", 1500),
	)
	niu := set(telemetry.BenchMeta{},
		ser("BenchmarkGatewayThroughput", "B/op", 120),    // +100% but +60 B
		ser("BenchmarkGatewayThroughput", "allocs/op", 4), // +100% but +2
		ser("BenchmarkBatcher/batch=4", "B/op", 400_000),  // a real leak
	)
	rep := Compare(old, niu, Options{Threshold: 0.10})
	if len(rep.Regressions) != 1 || !strings.HasPrefix(rep.Regressions[0], "BenchmarkBatcher/batch=4") {
		t.Fatalf("regressions = %v, want only the real leak", rep.Regressions)
	}
	for _, row := range rep.Rows {
		if row.Name == "BenchmarkGatewayThroughput" && row.Significant {
			t.Fatalf("sub-floor alloc move flagged significant: %+v", row)
		}
	}
}

func TestCompareMissingGated(t *testing.T) {
	old := set(telemetry.BenchMeta{},
		ser("BenchmarkGatewayThroughput", "req/s", 900, 910),
		ser("BenchmarkUngated", "ns/op", 1, 2),
	)
	niu := set(telemetry.BenchMeta{}) // both deleted
	rep := Compare(old, niu, Options{})
	if !rep.HasRegressions() {
		t.Fatal("deleting a gated benchmark must fail")
	}
	if len(rep.MissingGated) != 1 || rep.MissingGated[0] != "BenchmarkGatewayThroughput" {
		t.Fatalf("missing = %v", rep.MissingGated)
	}
}

func TestDefaultGatePattern(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkEnumerate":              true,
		"BenchmarkEnumerate/subs=cached":  true,
		"BenchmarkBatcher/batch=16":       true,
		"BenchmarkGatewayThroughput":      true,
		"BenchmarkMatmul":                 true,
		"BenchmarkMatMul":                 true,
		"BenchmarkMatMul/256x1200x729":    true,
		"BenchmarkShardRouter":            true,
		"BenchmarkTransferFit":            true,
		"BenchmarkTransferFitExtras":      false,
		"BenchmarkShardRouterSomething":   false,
		"BenchmarkEnumerateSomethingElse": false,
		"BenchmarkHelper":                 false,
	} {
		rep := Compare(set(telemetry.BenchMeta{}, ser(name, "ns/op", 1)),
			set(telemetry.BenchMeta{}, ser(name, "ns/op", 1)), Options{})
		if len(rep.Rows) != 1 || rep.Rows[0].Gated != want {
			t.Errorf("gate(%s) = %v, want %v", name, rep.Rows[0].Gated, want)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	in := set(telemetry.BenchMeta{GitSHA: "abc1234", Benchtime: "1x", Count: 3},
		ser("BenchmarkEnumerate", "ns/op", 100, 110, 90))
	if err := report.WriteEnvelopeFile(path, report.KindBench, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Meta.GitSHA != "abc1234" || out.Meta.Count != 3 {
		t.Fatalf("meta = %+v", out.Meta)
	}
	s := out.Series("BenchmarkEnumerate")
	if s == nil || len(s.Values["ns/op"]) != 3 {
		t.Fatalf("series = %+v", s)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wrong.json")
	if err := report.WriteEnvelopeFile(path, report.KindMetrics, telemetry.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("metrics envelope must be rejected as a bench input")
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestWriteText(t *testing.T) {
	old := set(telemetry.BenchMeta{GitSHA: "aaaaaaa", Count: 3},
		ser("BenchmarkEnumerate", "ns/op", 1000, 1010, 990))
	niu := set(telemetry.BenchMeta{GitSHA: "bbbbbbb", Count: 3},
		ser("BenchmarkEnumerate", "ns/op", 2000, 2020, 1980))
	rep := Compare(old, niu, Options{Threshold: 0.10})
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"aaaaaaa", "bbbbbbb", "BenchmarkEnumerate", "REGRESSION", "+100.0%", "1 gated regression"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
