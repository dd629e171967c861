package server

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the node's HTTP/JSON API: every row of the op table
// that names an HTTP route (DESIGN.md "Match serving" lists them), plus
// liveness, readiness and the flight recorder. Every response,
// including every error, is a JSON object.
func (s *Server) Handler() http.Handler { return s.host.Handler(Ops, s.healthz, s.readyz) }

func (s *Server) healthz() (ok bool, body any) {
	h := s.Healthz()
	return h.Status == "ok", h
}

// readyz is separate from liveness: it flips 503 at drain start, before
// any listener closes, so load balancers stop routing new traffic while
// in-flight requests still complete. The body always carries the
// per-ruleset readiness detail (compiling / reloading / cached / ready),
// so a router's health checker can distinguish a node that is warming
// from one that is dying.
func (s *Server) readyz() (ok bool, body any) {
	d := s.ReadyDetail()
	return d.Ready, d
}

// Handler mounts the rows that name an HTTP route, the two probes
// (each answers 200 or 503 with its body), GET /debug/requests on the
// host's trace ring and a structured 404 for everything else.
func (h *Host) Handler(rows []Op, healthz, readyz func() (ok bool, body any)) http.Handler {
	mux := http.NewServeMux()
	for i := range rows {
		if op := &rows[i]; op.Method != "" {
			mux.HandleFunc(op.Method+" "+op.Path, h.handle(op))
		}
	}
	for pattern, probe := range map[string]func() (bool, any){"GET /healthz": healthz, "GET /readyz": readyz} {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, _ *http.Request) {
			code := http.StatusOK
			ok, body := probe()
			if !ok {
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, body)
		})
	}
	mux.Handle("GET /debug/requests", h.Ring)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		h.writeError(w, Errorf(http.StatusNotFound, "no route %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// handle is the HTTP framing of one row: the admin gate, the body under
// the size cap, the path wildcard as key, X-CA-Trace-Id in and out.
// Every traced request echoes its trace id as the X-CA-Trace-Id
// response header, so a client holding a failed response can fetch the
// full stage breakdown from /debug/requests?id=… after the fact;
// ?debug=1 on /match additionally inlines the completed trace into the
// response body.
func (h *Host) handle(op *Op) http.HandlerFunc {
	_, wildcard, _ := op.split()
	return func(w http.ResponseWriter, r *http.Request) {
		// One pooled buffer carries the body in and the reply out:
		// decoding copies what it keeps, so the reply may overwrite it.
		buf := GetBuffer()
		defer PutBuffer(buf)
		var ferr error
		switch {
		case op.Admin && !h.authorized(r):
			ferr = Errorf(http.StatusUnauthorized, "missing or invalid admin token")
		case op.New != nil:
			ferr = readBody(w, r, h.MaxBody, buf)
		}
		rep := h.serve(r.Context(), op, r.Header.Get("X-CA-Trace-Id"), r.PathValue(wildcard), buf.Bytes(), ferr)
		if rep.traceID != "" {
			w.Header().Set("X-CA-Trace-Id", rep.traceID)
		}
		if rep.err != nil {
			h.writeError(w, rep.err)
			return
		}
		if mr, ok := rep.out.(*MatchResponse); ok && rep.report != nil && r.URL.Query().Get("debug") == "1" {
			mr.Trace = rep.report
		}
		// The reply and its newline go out in one Write, the bytes
		// json.Encoder.Encode would write; on an encoding error, as
		// there, the 200 goes out with no body. A reply that outgrows
		// the buffer is appended elsewhere and not pooled.
		buf.Reset()
		out, err := AppendJSON(buf.AvailableBuffer(), rep.out)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err == nil {
			//cavet:ignore errdrop a reply that fails to write has no one left to report to, as with json.Encoder before it
			_, _ = w.Write(append(out, '\n'))
		}
	}
}

// authorized checks "Authorization: Bearer <token>" against the host's
// admin token in constant time.
func (h *Host) authorized(r *http.Request) bool {
	if h.AdminToken == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(h.AdminToken)) == 1
}

// readBody reads a request body under the size cap into buf, presized
// from Content-Length but never past the cap; an oversized or torn body
// is a structured 413/400, never a panic.
func readBody(w http.ResponseWriter, r *http.Request, max int64, buf *bytes.Buffer) error {
	err := ReadBody(buf, http.MaxBytesReader(w, r.Body, max), min(r.ContentLength, max+1))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return Errorf(http.StatusBadRequest, "read body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders err as {"error": ...} under its status; a shed
// carries its Retry-After header.
func (h *Host) writeError(w http.ResponseWriter, err error) {
	var e *Error
	if errors.As(err, &e) && e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, StatusOf(err, h.Fallback), map[string]string{"error": err.Error()})
}
