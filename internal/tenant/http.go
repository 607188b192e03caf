package tenant

import (
	"encoding/json"
	"net/http"
)

// Handler exposes the joint scaler over HTTP:
//
//	GET /joint/status  JointStatus as JSON
//
// The gateway the scaler drives is served by serving.Handler.
func Handler(sc *Scaler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/joint/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sc.Status())
	})
	return mux
}
