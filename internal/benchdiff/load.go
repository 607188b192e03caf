package benchdiff

import (
	"fmt"
	"os"

	"ccperf/internal/report"
	"ccperf/internal/telemetry"
)

// Load reads a ccperf/v1 bench envelope — the sample-preserving BenchSet
// `ccperf benchjson` writes — from path.
func Load(path string) (*telemetry.BenchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, err := report.ReadEnvelope(f)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	var set telemetry.BenchSet
	if err := env.Decode(report.KindBench, &set); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(set.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks in bench payload", path)
	}
	return &set, nil
}

// CompareFiles loads both envelopes and diffs them.
func CompareFiles(oldPath, newPath string, opt Options) (*Report, error) {
	oldSet, err := Load(oldPath)
	if err != nil {
		return nil, err
	}
	newSet, err := Load(newPath)
	if err != nil {
		return nil, err
	}
	return Compare(oldSet, newSet, opt), nil
}
