package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ccperf/internal/tensor"
)

// InferRequest is the POST /infer body. Either Image (flat CHW data whose
// length matches the tenant model's input volume) or Seed (a synthetic
// deterministic image — handy for curl) must be set.
type InferRequest struct {
	// Tenant is the tenant to submit as (empty = DefaultTenant).
	Tenant string    `json:"tenant,omitempty"`
	Image  []float32 `json:"image,omitempty"`
	Seed   int64     `json:"seed,omitempty"`
	// DeadlineMS overrides the tenant's default per-request deadline,
	// in milliseconds from arrival (0 = use the default).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// InferResponse is the POST /infer reply.
type InferResponse struct {
	Tenant   string  `json:"tenant"`
	ID       int64   `json:"id"`
	Class    int     `json:"class"`
	Variant  int     `json:"variant"`
	Degree   string  `json:"degree"`
	Accuracy float64 `json:"accuracy"`
	QueueMS  float64 `json:"queue_ms"`
	TotalMS  float64 `json:"total_ms"`
	Batch    int     `json:"batch"`
	Attempts int     `json:"attempts"`
}

// Handler exposes the gateway over HTTP:
//
//	POST /infer           run one inference as a tenant (InferRequest → InferResponse)
//	GET  /gateway/status  Stats plus one TenantStats row per tenant, as JSON
//
// Shedding and quota rejections map to 429 Too Many Requests, an unknown
// tenant to 404, an expired deadline to 504 Gateway Timeout, shutdown to
// 503 Service Unavailable (StatusFor) — so a load balancer in front sees
// the standard signals. A request without a tenant on a gateway that
// hosts no DefaultTenant is a 400.
func Handler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		tenant := req.Tenant
		if tenant == "" {
			if g.tenant(DefaultTenant) == nil {
				http.Error(w, "tenant field required", http.StatusBadRequest)
				return
			}
			tenant = DefaultTenant
		}
		t, err := g.lookup(tenant)
		if err != nil {
			http.Error(w, err.Error(), StatusFor(err))
			return
		}
		shape := t.Ladder[0].Net.Input
		var img *tensor.Tensor
		switch {
		case len(req.Image) > 0:
			if len(req.Image) != shape.Volume() {
				http.Error(w, fmt.Sprintf("image length %d, want %d (%v)", len(req.Image), shape.Volume(), shape), http.StatusBadRequest)
				return
			}
			img = tensor.FromSlice(req.Image, shape.C, shape.H, shape.W)
		default:
			img = SyntheticImage(shape.C, shape.H, shape.W, req.Seed)
		}
		var deadline time.Time
		if req.DeadlineMS > 0 {
			deadline = time.Now().Add(time.Duration(req.DeadlineMS * float64(time.Millisecond)))
		}
		resp := g.InferAs(r.Context(), tenant, img, deadline)
		if resp.Err != nil {
			http.Error(w, resp.Err.Error(), StatusFor(resp.Err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(InferResponse{
			Tenant: tenant,
			ID:     resp.ID, Class: resp.Class,
			Variant: resp.Variant, Degree: resp.Degree, Accuracy: resp.Accuracy,
			QueueMS:  float64(resp.Queue) / float64(time.Millisecond),
			TotalMS:  float64(resp.Total) / float64(time.Millisecond),
			Batch:    resp.Batch,
			Attempts: resp.Attempts,
		})
	})
	mux.HandleFunc("/gateway/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Stats
			Tenants []TenantStats `json:"tenants"`
		}{g.Stats(), g.AllTenantStats()})
	})
	return mux
}

// StatusFor maps a response error to the HTTP status both gateway
// handlers answer with: back-pressure (shedding, quota) is 429, an unknown
// tenant 404, an expired deadline 504, shutdown 503, anything else 500.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrExpired):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrFaulted):
		// An injected failure that exhausted its retries is a plain
		// server-side error.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// SyntheticImage builds a deterministic pseudo-random CHW image — the
// stand-in input the HTTP demo path and the load generator feed the model.
func SyntheticImage(c, h, w int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(c, h, w)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}
