package prune

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// refLabel is Label as fmt writes it: the positive ratios in layer order,
// each "%s@%g" of its percentage rounded to 0.1.
func refLabel(d Degree) string {
	var keys []string
	for k, v := range d.Ratios {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "nonpruned"
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s@%g", k, math.Round(d.Ratios[k]*1000)/10)
	}
	return strings.Join(parts, "+")
}

// FuzzDegreeLabel throws arbitrary strings at ParseDegree and checks, for
// every degree it accepts, that Label matches the fmt reference byte for
// byte and survives a ParseDegree round trip: re-parsing the label gives
// each pruned layer its ratio at the label's 0.1% resolution, and the
// re-parsed degree labels the same unless a ratio rounded to 0 (a ratio
// under 0.05% labels as "layer@0", which parses back unpruned).
func FuzzDegreeLabel(f *testing.F) {
	for _, seed := range []string{
		"",
		"nonpruned",
		"conv1@30",
		"conv2@50+conv1@30",
		"conv1@20+conv2@50+conv3@50+conv4@60+conv5@20",
		"conv1@33.3333",
		"conv1@0.04",
		"conv1@0+conv2@0",
		"conv1@1e2",
		"conv1@0x1p-2",
		"conv1@NaN",
		"conv1@-0",
		" conv1 @ 30 + inception-4d-5x5@12.5 ",
		"conv1@30+conv1@50",
		"conv1@150",
		"@30",
		"conv1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDegree(s)
		if err != nil {
			return // rejected specs only need to fail without panicking
		}
		label := d.Label()
		if want := refLabel(d); label != want {
			t.Fatalf("Label of %q = %q, fmt reference %q", s, label, want)
		}
		rt, err := ParseDegree(label)
		if err != nil {
			t.Fatalf("Label %q of accepted degree %q does not re-parse: %v", label, s, err)
		}
		roundedToZero := false
		for k, v := range d.Ratios {
			if !(v > 0) {
				continue
			}
			pct := math.Round(v*1000) / 10
			if got, want := rt.Ratio(k), pct/100; got != want {
				t.Fatalf("layer %q of %q: ratio %v after the round trip, want %v", k, s, got, want)
			}
			roundedToZero = roundedToZero || pct == 0
		}
		if again := rt.Label(); !roundedToZero && again != label {
			t.Fatalf("Label not a fixpoint: %q → %q", label, again)
		}
	})
}
