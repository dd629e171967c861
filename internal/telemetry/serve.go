package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a running telemetry endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts an HTTP endpoint on addr (":0" picks a free port) exposing:
//
//	/metrics      Prometheus text exposition of reg
//	/metrics.json the same registry as one JSON object
//	/debug/vars   expvar (includes the registry under "cacheautomaton")
//	/debug/pprof/ the standard pprof profile index
//
// reg == nil uses Default(). The server runs on its own goroutine until
// Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	reg.PublishExpvar("cacheautomaton")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln: ln}
	//cavet:owner telemetry.Server http.Server.Close (via Server.Close) unblocks Serve
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// ServeHTTP serves the flight recorder — the one /debug/requests handler
// behind a cad node and the cluster router alike: the ring snapshot
// (recent plus pinned slow/error traces) as JSON, or as a human-readable
// text dump with ?format=text. ?id= looks one trace up by its
// X-CA-Trace-Id. A nil ring (tracing disabled) and an unknown id answer
// a structured 404.
func (r *TraceRing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	writeJSON := func(code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	text := req.URL.Query().Get("format") == "text"
	if text { // writeJSON overrides it
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	id := req.URL.Query().Get("id")
	var rep *ReqReport
	if id != "" {
		rep = r.Find(id)
	}
	switch {
	case r == nil:
		writeJSON(http.StatusNotFound, map[string]string{"error": "request tracing is disabled"})
	case id != "" && rep == nil:
		writeJSON(http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no trace %q (evicted or never recorded)", id)})
	case id != "" && text:
		_ = rep.Format(w)
	case id != "":
		writeJSON(http.StatusOK, rep)
	case !text:
		writeJSON(http.StatusOK, r.Snapshot())
	default:
		snap := r.Snapshot()
		fmt.Fprintf(w, "flight recorder: %d recent, %d pinned (slow >= %.0fms)\n\n",
			len(snap.Recent), len(snap.Pinned), snap.SlowMS)
		for _, section := range []struct {
			name string
			reps []*ReqReport
		}{{"pinned", snap.Pinned}, {"recent", snap.Recent}} {
			fmt.Fprintf(w, "== %s ==\n", section.name)
			for _, rep := range section.reps {
				_ = rep.Format(w)
				fmt.Fprintln(w)
			}
		}
	}
}
