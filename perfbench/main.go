// Command perfbench is the repository's benchmark. It drives ccperf only
// through its public Go API — Open, NewPlanner and SubmitAs — and prints
// every metric by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload serve-dense --seed 1 --seconds 35 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end number each per-layer number should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// layerUse lists, per workload, the layers its requests pass through;
// per-layer metrics of any other layer read 0 on it.
var layerUse = map[string]map[string]bool{
	"serve-dense":          {"loadgen": true, "serving": true, "nn": true, "tensor": true, "trace": true},
	"serve-tenants-pruned": {"loadgen": true, "tenant": true, "nn": true, "tensor": true, "trace": true},
	"plan":                 {"explore": true, "engine": true, "cloud": true, "plan": true, "trace": true},
}

// report gathers one run's metrics, notes, accounting and verdict.
type report struct {
	vals      values
	lines     []string
	problems  []string
	attempted int
	failed    int
	ties      int
	tieSample string
	traceOut  *trace
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

func (r *report) info(name, text string) {
	r.lines = append(r.lines, fmt.Sprintf("info   %-28s %s", name, text))
}

// incorrect records an output that failed a check; the run then reports
// correct=false.
func (r *report) incorrect(msg string) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// tie counts a planner output that matched the golden only up to a
// choice between candidates whose objective values agree (see near).
func (r *report) tie(msg string) {
	r.ties++
	r.tieSample = msg
}

func (r *report) accounting(phase string, n [nOutcomes]int) {
	var b strings.Builder
	total := 0
	for o := outOK; o < nOutcomes; o++ {
		fmt.Fprintf(&b, " %s=%d", outcomeNames[o], n[o])
		total += n[o]
	}
	r.lines = append(r.lines, fmt.Sprintf("phase  %-28s attempted=%d%s unset=%d", phase, total+n[outUnset], b.String(), n[outUnset]))
}

// overhead reports what tracing changed in the end-to-end numbers, as a
// percentage of the untraced value (positive = the traced run was higher).
func (r *report) overhead(p50, p50T, p90, p90T, peak, peakT float64) {
	pct := func(a, b float64) float64 { return (b - a) / a * 100 }
	r.set("trace.overhead_p50_pct", pct(p50, p50T))
	r.set("trace.overhead_p90_pct", pct(p90, p90T))
	r.set("trace.overhead_peak_rps_pct", pct(peak, peakT))
}

type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	GitSHA       string  `json:"git_sha"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
}

// cpuModel reads the "model name" line that `go test -bench` prints as
// "cpu:"; elsewhere than Linux it is unknown.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code measured when the checkout is not
// a git repository. Hidden directories (build output) are skipped.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func main() {
	workload := flag.String("workload", "", "serve-dense, serve-tenants-pruned or plan")
	seed := flag.Int64("seed", 1, "workload seed: arrivals, images, tenant choice, warm plan pair")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced int) error {
	uses, ok := layerUse[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// One replica serves; the second core runs the load generator and
	// response collection. More processors would only add scheduler noise.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	r := &report{vals: values{}}
	var err error
	switch workload {
	case "serve-dense":
		err = runServe(&serveDense, seed, seconds, traced == 1, r)
	case "serve-tenants-pruned":
		err = runServe(&serveTenantsPruned, seed, seconds, traced == 1, r)
	case "plan":
		err = runPlan(seed, seconds, traced == 1, r)
	}
	if err != nil {
		return err
	}

	table, layers := endToEnd, map[string]bool(nil)
	if traced == 1 {
		table, layers = perLayer, uses
	}
	vals, err := r.vals.pick(table, layers)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, traced)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, m := range append(endToEnd, perLayer...) {
		if v, ok := r.vals[m.name]; ok {
			fmt.Printf("metric %-28s %.6g %s\n", m.name, v, m.unit)
		}
	}
	if r.ties > 0 {
		fmt.Printf("info   %-28s %d outputs chose differently between equal-valued candidates, e.g. %s\n", "planner_ties", r.ties, r.tieSample)
	}
	for _, p := range r.problems {
		fmt.Println("INCORRECT", p)
	}
	if r.traceOut != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := r.traceOut.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans  %d written to %s\n", len(r.traceOut.spans), path)
	}

	gitSHA := os.Getenv("PERFBENCH_GIT_SHA")
	if gitSHA == "" {
		gitSHA = "none"
	}
	prov, err := json.Marshal(map[string]provenance{"provenance": {
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		GitSHA: gitSHA, SourceSHA256: sourceDigest(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}})
	if err != nil {
		return err
	}
	fmt.Println(string(prov))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for i, m := range table {
		out.Metrics[m.name] = value{vals[i], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
