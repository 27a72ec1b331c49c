package obs

import (
	"encoding/json"
	"net"
	"net/http"
)

// MetricsHandler serves the registry in Prometheus text format.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// JSONHandler serves fn's result as indented JSON, re-evaluated per
// request.
func JSONHandler(fn func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(fn())
	})
}

// HealthHandler serves fn's detail as JSON with status 200 when healthy
// and 503 otherwise — the liveness/readiness contract load balancers and
// scrapers expect.
func HealthHandler(fn func() (ok bool, detail any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ok, detail := fn()
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(detail)
	})
}

// TraceHandler serves the tracer's retained spans as JSON, optionally
// filtered with ?device=addr.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if dev := req.URL.Query().Get("device"); dev != "" {
			spans := t.SpansFor(dev)
			if spans == nil {
				spans = []Span{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(spans)
			return
		}
		t.WriteJSON(w)
	})
}

// EventsHandler serves the event log's retained events as JSON.
func EventsHandler(l *EventLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		l.WriteJSON(w)
	})
}

// ServeMetrics starts a background HTTP server exposing the registry at
// /metrics on addr (e.g. "127.0.0.1:0"). It returns the bound address and
// a shutdown function — the one-call exposition path for a process that
// wants metrics without assembling its own mux (erasmus-fleet -serve
// mounts the fuller internal/serve surface).
func ServeMetrics(addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
