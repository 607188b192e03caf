package autoscale

import (
	"context"
	"fmt"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
)

// BuildProfiles asks the shared engine.Predictor what each ladder rung is
// worth: predicted Top-1 accuracy and the per-batch time ratio against
// rung 0 on the given instance type — one Speed per rung, the per-variant
// capacity model the policy scales its measured baseline by. Degrees must
// be the gateway ladder's, least-pruned first. Because the predictor is
// memoizing (engine.Cache), rungs shared with the planning layers cost
// nothing extra.
func BuildProfiles(ctx context.Context, pred engine.Predictor, degrees []prune.Degree, inst *cloud.Instance, batch int) ([]Profile, error) {
	if len(degrees) == 0 {
		return nil, fmt.Errorf("autoscale: no ladder degrees to profile")
	}
	if batch <= 0 {
		batch = 8
	}
	out := make([]Profile, 0, len(degrees))
	var base float64
	for i, d := range degrees {
		sec, err := pred.BatchSeconds(ctx, d, inst, 1, batch)
		if err != nil {
			return nil, fmt.Errorf("autoscale: profiling %s time: %w", d.Label(), err)
		}
		acc, err := pred.Accuracy(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("autoscale: profiling %s accuracy: %w", d.Label(), err)
		}
		if i == 0 {
			base = sec
		}
		speed := 1.0
		if sec > 0 {
			speed = base / sec
		}
		out = append(out, Profile{Degree: d.Label(), Accuracy: acc.Top1, Speed: speed})
	}
	return out, nil
}

// ProfilesFromLadder derives profiles from a built variant ladder:
// accuracy proxies come from the variants, speeds from the caller
// (predictor-derived per-batch time ratios; nil = all 1, a conservative
// "degrading frees nothing" model that makes the policy prefer replicas).
// Use BuildProfiles when a predictor is available.
func ProfilesFromLadder(ladder []serving.Variant, speeds []float64) []Profile {
	out := make([]Profile, len(ladder))
	for i, v := range ladder {
		speed := 1.0
		if i < len(speeds) && speeds[i] > 0 {
			speed = speeds[i]
		}
		out[i] = Profile{Degree: v.Degree.Label(), Accuracy: v.Accuracy, Speed: speed}
	}
	return out
}
