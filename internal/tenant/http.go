package tenant

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/tensor"
)

// InferRequest is the POST /infer body on the multi-tenant gateway. It is
// the single-tenant serving.InferRequest plus the tenant label the caller
// submits as.
type InferRequest struct {
	Tenant string    `json:"tenant"`
	Image  []float32 `json:"image,omitempty"`
	Seed   int64     `json:"seed,omitempty"`
	// DeadlineMS overrides the tenant's deadline, in milliseconds from
	// arrival (0 = use the tenant's own deadline, if any).
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

// StatusReply is the GET /gateway/status body: one row per tenant plus
// the fleet view and, when a joint scaler is attached, its placement
// status (per-tenant attributed cost and $/million-on-time).
type StatusReply struct {
	Replicas       int                   `json:"replicas"`
	ReplicaSeconds float64               `json:"replica_seconds"`
	Tenants        []serving.TenantStats `json:"tenants"`
	Joint          *JointStatus          `json:"joint,omitempty"`
}

// Handler exposes a multi-tenant gateway over HTTP:
//
//	POST /infer           run one inference as a tenant (InferRequest → InferResponse)
//	GET  /gateway/status  per-tenant StatusReply rows as JSON
//
// A quota rejection maps to 429 Too Many Requests (same as shedding — both
// are back-pressure a load balancer should honor), an unknown tenant to
// 404, an expired deadline to 504, shutdown to 503 (serving.StatusFor).
// The scaler may be nil.
func Handler(g *serving.Gateway, sc *Scaler) http.Handler {
	hmux := http.NewServeMux()
	hmux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Tenant == "" {
			http.Error(w, "tenant field required", http.StatusBadRequest)
			return
		}
		ladder := g.Ladder(req.Tenant)
		if ladder == nil {
			http.Error(w, serving.ErrUnknownTenant.Error()+": "+req.Tenant, http.StatusNotFound)
			return
		}
		shape := ladder[0].Net.Input
		var img *tensor.Tensor
		switch {
		case len(req.Image) > 0:
			if len(req.Image) != shape.Volume() {
				http.Error(w, fmt.Sprintf("image length %d, want %d (%v)", len(req.Image), shape.Volume(), shape), http.StatusBadRequest)
				return
			}
			img = tensor.FromSlice(req.Image, shape.C, shape.H, shape.W)
		default:
			img = serving.SyntheticImage(shape.C, shape.H, shape.W, req.Seed)
		}
		var deadline time.Time
		if req.DeadlineMS > 0 {
			deadline = time.Now().Add(time.Duration(req.DeadlineMS * float64(time.Millisecond)))
		}
		resp := g.InferAs(r.Context(), req.Tenant, img, deadline)
		if resp.Err != nil {
			http.Error(w, resp.Err.Error(), serving.StatusFor(resp.Err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(InferResponse{
			Tenant: req.Tenant,
			ID:     resp.ID, Class: resp.Class,
			Variant: resp.Variant, Degree: resp.Degree, Accuracy: resp.Accuracy,
			QueueMS:  float64(resp.Queue) / float64(time.Millisecond),
			TotalMS:  float64(resp.Total) / float64(time.Millisecond),
			Batch:    resp.Batch,
			Attempts: resp.Attempts,
		})
	})
	hmux.HandleFunc("/gateway/status", func(w http.ResponseWriter, r *http.Request) {
		reply := StatusReply{
			Replicas:       g.ReplicaCount(),
			ReplicaSeconds: g.ReplicaSeconds(),
			Tenants:        g.AllTenantStats(),
		}
		if sc != nil {
			js := sc.Status()
			reply.Joint = &js
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reply)
	})
	return hmux
}
