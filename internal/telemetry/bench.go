package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one parsed `go test -bench` result line.
type BenchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkSpaceEnumeration" or "BenchmarkAlgorithm1VsExhaustive/greedy".
	Name string
	// Iterations is b.N for the reported run.
	Iterations int64
	// Values maps unit → value, e.g. "ns/op" → 123456, "model-evals" → 42.
	Values map[string]float64
}

// ParseBench extracts benchmark result lines from `go test -bench` output,
// tolerating interleaved experiment printouts, goos/pkg headers and PASS
// trailers. Lines that do not look like results are skipped silently; a
// line that starts like a result but fails to parse is an error.
func ParseBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "BenchmarkName-P N value unit [value unit]...".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // e.g. the bare "BenchmarkFoo" line printed before a run
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // not an iteration count ⇒ not a result line
		}
		res := BenchResult{
			Name:       trimProcSuffix(fields[0]),
			Iterations: n,
			Values:     make(map[string]float64, (len(fields)-2)/2),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: bad bench value %q in %q: %v", fields[i], line, err)
			}
			res.Values[fields[i+1]] = v
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name,
// keeping sub-benchmark paths intact ("BenchmarkX/sub=1-8" → "BenchmarkX/sub=1").
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// BenchMeta records how a bench set was produced, so trajectory points can
// be compared knowingly: a delta between runs at different -benchtime, or
// on different machines, means something different from a same-rig rerun.
type BenchMeta struct {
	// GitSHA is the commit the benchmarks ran at (short form).
	GitSHA string `json:"git_sha,omitempty"`
	// Benchtime is the -benchtime the runs used (e.g. "1x", "100ms").
	Benchtime string `json:"benchtime,omitempty"`
	// Count is the -count repetitions per benchmark (variance source).
	Count int `json:"count,omitempty"`
	// Note is free-form provenance (machine class, "ci", "local", ...).
	Note string `json:"note,omitempty"`
}

// String renders the provenance compactly, e.g.
// "09d4856 (-benchtime 1x -count 3)"; empty meta renders as "unknown".
func (m BenchMeta) String() string {
	sha := m.GitSHA
	if sha == "" {
		sha = "unknown"
	}
	var opts []string
	if m.Benchtime != "" {
		opts = append(opts, "-benchtime "+m.Benchtime)
	}
	if m.Count > 0 {
		opts = append(opts, fmt.Sprintf("-count %d", m.Count))
	}
	if m.Note != "" {
		opts = append(opts, m.Note)
	}
	if len(opts) == 0 {
		return sha
	}
	return sha + " (" + strings.Join(opts, " ") + ")"
}

// BenchSeries is every run of one benchmark across -count repetitions —
// the sample-preserving form BenchSnapshot's last-write-wins maps cannot
// express, and the input variance-aware diffing needs.
type BenchSeries struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is b.N per run, in input order.
	Iterations []int64 `json:"iterations"`
	// Values maps unit → one value per run, e.g. "ns/op" → [1200, 1180].
	// Runs that omitted a unit contribute nothing to that unit's slice, so
	// slices may be shorter than Iterations.
	Values map[string][]float64 `json:"values"`
}

// BenchSet is the ccperf/v1 "bench" payload: one snapshot of the repo's
// benchmarks with per-run samples and provenance. Committed BENCH_<n>.json
// trajectory points and `ccperf benchdiff` inputs are BenchSets.
type BenchSet struct {
	// UnixNano is the capture time.
	UnixNano int64 `json:"unix_nano"`
	// Meta is the run's provenance.
	Meta BenchMeta `json:"meta"`
	// Benchmarks holds one series per benchmark name, sorted by name.
	Benchmarks []BenchSeries `json:"benchmarks"`
}

// CollectBench groups parsed result lines into per-benchmark series,
// preserving every -count repetition as a separate sample. Output is
// sorted by benchmark name.
func CollectBench(results []BenchResult) []BenchSeries {
	byName := make(map[string]*BenchSeries)
	order := make([]string, 0, len(byName))
	for _, r := range results {
		s, ok := byName[r.Name]
		if !ok {
			s = &BenchSeries{Name: r.Name, Values: make(map[string][]float64)}
			byName[r.Name] = s
			order = append(order, r.Name)
		}
		s.Iterations = append(s.Iterations, r.Iterations)
		for unit, v := range r.Values {
			s.Values[unit] = append(s.Values[unit], v)
		}
	}
	sort.Strings(order)
	out := make([]BenchSeries, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// Series returns the named series, or nil.
func (s *BenchSet) Series(name string) *BenchSeries {
	i := sort.Search(len(s.Benchmarks), func(i int) bool { return s.Benchmarks[i].Name >= name })
	if i < len(s.Benchmarks) && s.Benchmarks[i].Name == name {
		return &s.Benchmarks[i]
	}
	return nil
}
