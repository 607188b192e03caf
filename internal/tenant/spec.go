// Package tenant declares the tenants a multi-tenant serving.Gateway
// hosts — several pruning ladders, each with its own calibrated accuracy
// proxy, latency SLO, admission quota, and budget share — and drives them
// on one shared replica fleet.
//
// The paper prices a single model's cost-accuracy frontier on one
// instance at a time; Perseus and "No DNN Left Behind" (PAPERS.md) show
// the dominant serving-cost win comes from co-locating models on shared
// capacity. Co-location is a scheduling question over shared workers, so
// the serving gateway owns the mechanisms — per-tenant token-bucket
// quotas, bounded backlogs, and deficit round-robin batching that
// coalesces only same-tenant requests — and this package supplies the
// rest:
//
//   - Specs and the Registry: the spec-file format, validation and
//     defaults, turned into serving.Tenant declarations by
//     Registry.Tenants.
//   - The per-tenant Poisson schedule RunLoad replays through
//     serving.Replay.
//
// The gateway itself is served by serving.Handler, and autoscale.Scaler
// drives it — which tenant degrades first (largest accuracy-per-dollar
// slack), which gets freed capacity, per-tenant $/hr enforcement — with
// each spec's MaxCostPerHour passed in by name.
//
// The tenant spec format, fairness model and degrade-order semantics are
// documented in docs/MULTITENANT.md.
package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ccperf/internal/serving"
)

// Spec declares one tenant to the fleet. JSON tags define the spec-file
// format `ccperf loadtest -tenants` and `serve -tenants` accept (a JSON
// array of these objects).
type Spec struct {
	// Name identifies the tenant (required, unique within a registry).
	Name string `json:"name"`
	// Ladder lists the tenant's prune ratios, least pruned first (empty =
	// serving.DefaultLadderRatios). Each tenant's ladder is built as its
	// own variant set — rungs are never shared across tenants.
	Ladder []float64 `json:"ladder,omitempty"`
	// SLOMS is the tenant's p99 latency objective in milliseconds
	// (default 50). On-time accounting and the autoscaler defend it.
	SLOMS float64 `json:"slo_ms,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds applied at
	// admission when the caller supplies none (0 = no deadline).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// QPS is the admission quota in requests/second (0 = unlimited).
	// Requests beyond the bucket are rejected with
	// serving.ErrQuotaExceeded.
	QPS float64 `json:"qps,omitempty"`
	// Burst is the token-bucket depth (default max(1, ceil(QPS))).
	Burst float64 `json:"burst,omitempty"`
	// Weight is the tenant's deficit-round-robin share of replica time
	// (default 1): a weight-2 tenant is offered twice the batch quantum
	// of a weight-1 tenant each scheduling round.
	Weight float64 `json:"weight,omitempty"`
	// QueueCap bounds the tenant's private backlog (default 64); overflow
	// is shed with serving.ErrOverloaded.
	QueueCap int `json:"queue_cap,omitempty"`
	// MaxCostPerHour caps the tenant's attributed share of the fleet burn
	// rate (0 = uncapped); the autoscaler degrades a tenant over its
	// cap regardless of fleet health.
	MaxCostPerHour float64 `json:"max_cost_per_hour,omitempty"`
	// OfferedQPS is the open-loop load RunLoad generates for this tenant
	// (0 = QPS, or 20/s when both are unset). Offered > QPS exercises
	// quota rejection — the flooding-tenant scenario.
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	// Images is the tenant's offline batch demand for `ccperf pack`
	// (0 = the command's -images default). Unused by the serving path.
	Images int64 `json:"images,omitempty"`
	// PackDeadlineHours is the tenant's offline completion deadline for
	// `ccperf pack`, in hours (0 = none). Distinct from DeadlineMS, which
	// bounds one online request. Unused by the serving path.
	PackDeadlineHours float64 `json:"pack_deadline_hours,omitempty"`
}

// withDefaults fills the documented defaults on zero fields.
func (s Spec) withDefaults() Spec {
	if len(s.Ladder) == 0 {
		s.Ladder = nil // the ladder builder substitutes its default rungs
	}
	if s.SLOMS <= 0 {
		s.SLOMS = 50
	}
	if s.QPS < 0 {
		s.QPS = 0
	}
	if s.Burst <= 0 && s.QPS > 0 {
		s.Burst = s.QPS
		if s.Burst < 1 {
			s.Burst = 1
		}
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.QueueCap <= 0 {
		s.QueueCap = 64
	}
	return s
}

// Validate rejects a spec the fleet cannot host.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("tenant: spec needs a name")
	}
	for _, r := range s.Ladder {
		if r < 0 || r > 1 {
			return fmt.Errorf("tenant %s: ladder ratio %v out of [0,1]", s.Name, r)
		}
	}
	if s.QPS < 0 || s.Burst < 0 || s.Weight < 0 || s.SLOMS < 0 ||
		s.DeadlineMS < 0 || s.MaxCostPerHour < 0 || s.OfferedQPS < 0 ||
		s.Images < 0 || s.PackDeadlineHours < 0 {
		return fmt.Errorf("tenant %s: negative spec field", s.Name)
	}
	return nil
}

// SLO returns the latency objective as a duration.
func (s Spec) SLO() time.Duration {
	return time.Duration(s.SLOMS * float64(time.Millisecond))
}

// Deadline returns the per-request deadline offset (0 = none).
func (s Spec) Deadline() time.Duration {
	return time.Duration(s.DeadlineMS * float64(time.Millisecond))
}

// Registry is a validated, defaulted tenant set with stable iteration
// order (sorted by name, so every consumer — scheduler rounds, status
// rows, reports — sees the same deterministic order).
type Registry struct {
	specs  []Spec
	byName map[string]int
}

// NewRegistry validates and defaults the specs. Names must be unique.
func NewRegistry(specs []Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one spec")
	}
	r := &Registry{byName: make(map[string]int, len(specs))}
	r.specs = make([]Spec, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		r.specs[i] = s.withDefaults()
	}
	sort.Slice(r.specs, func(i, j int) bool { return r.specs[i].Name < r.specs[j].Name })
	for i, s := range r.specs {
		if _, dup := r.byName[s.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", s.Name)
		}
		r.byName[s.Name] = i
	}
	return r, nil
}

// Len returns the tenant count.
func (r *Registry) Len() int { return len(r.specs) }

// Specs returns the defaulted specs in name order (shared slice: do not
// mutate).
func (r *Registry) Specs() []Spec { return r.specs }

// Names returns the tenant names in registry (sorted) order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.specs))
	for i, s := range r.specs {
		out[i] = s.Name
	}
	return out
}

// Get returns the named spec and whether it exists.
func (r *Registry) Get(name string) (Spec, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Spec{}, false
	}
	return r.specs[i], true
}

// Tenants builds every tenant's ladder from its prune ratios with build
// (nil = serving.DemoLadder) and returns the serving declarations, in
// registry order, that a gateway's Config.Tenants takes.
func (r *Registry) Tenants(build func(ratios []float64) ([]serving.Variant, error)) ([]serving.Tenant, error) {
	if build == nil {
		build = serving.DemoLadder
	}
	out := make([]serving.Tenant, len(r.specs))
	for i, s := range r.specs {
		ladder, err := build(s.Ladder)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: building ladder: %w", s.Name, err)
		}
		out[i] = serving.Tenant{
			Name:     s.Name,
			Ladder:   ladder,
			Weight:   s.Weight,
			QueueCap: s.QueueCap,
			Deadline: s.Deadline(),
			SLO:      s.SLO(),
			QPS:      s.QPS,
			Burst:    s.Burst,
		}
	}
	return out, nil
}

// ParseSpecs decodes a tenant spec file: a JSON array of Spec objects
// (optionally wrapped as {"tenants": [...]}).
func ParseSpecs(rd io.Reader) ([]Spec, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading specs: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(raw, &specs); err != nil {
		var wrapped struct {
			Tenants []Spec `json:"tenants"`
		}
		if err2 := json.Unmarshal(raw, &wrapped); err2 != nil || len(wrapped.Tenants) == 0 {
			return nil, fmt.Errorf("tenant: decoding specs: %w", err)
		}
		specs = wrapped.Tenants
	}
	return specs, nil
}

// LoadSpecs reads and parses a tenant spec file.
func LoadSpecs(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSpecs(f)
}
