package telemetry

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
)

var expvarOnce sync.Once

// Handler returns the debug surface for a registry + tracer pair:
//
//	/            index of routes
//	/metrics     text rendering (add ?format=json for the Snapshot JSON)
//	/trace       TraceDump JSON (add ?format=chrome for trace_event format)
//	/debug/vars  expvar (includes the registry snapshot under "ccperf")
//	/debug/pprof/...  the standard pprof handlers
//
// Passing nil for reg or tr uses the package defaults.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	if reg == nil {
		reg = Default
	}
	if tr == nil {
		tr = DefaultTracer
	}
	// expvar.Publish panics on duplicate names; the Default registry is
	// published once per process regardless of how many handlers exist.
	if reg == Default {
		expvarOnce.Do(func() {
			expvar.Publish("ccperf", expvar.Func(func() any { return Default.Snapshot() }))
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `ccperf telemetry

  /metrics                 counters, gauges, histogram summaries (text)
  /metrics?format=json     the same as a JSON snapshot
  /trace                   recent spans (JSON)
  /trace?format=chrome     Chrome trace_event format (chrome://tracing)
  /debug/vars              expvar
  /debug/pprof/            CPU, heap, goroutine, ... profiles
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var err error
		if r.URL.Query().Get("format") == "chrome" {
			err = tr.WriteChromeTrace(w)
		} else {
			err = tr.WriteJSON(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
