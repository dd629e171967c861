package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// Host is one mounting of the op table: the API its rows run against and
// the few things that differ between a node and the cluster router.
type Host struct {
	API API
	// MaxBody caps a request body; AdminToken, when set, is the bearer
	// token Admin rows require (empty leaves them open — the API's
	// default trust model).
	MaxBody    int64
	AdminToken string
	// Fallback is the status of an error that carries none (StatusOf).
	Fallback int
	// Ring receives completed traces (nil disables tracing).
	Ring *telemetry.TraceRing
	// Col receives the ca_server_* request metrics; nil on the router,
	// which keeps its own ca_cluster_* counters inside its ops.
	Col *telemetry.ServerCollector
	// Finish, when set, lands a completed trace in place of the default
	// (close it, add it to Ring).
	Finish func(rt *telemetry.ReqTrace, outcome, msg string) *telemetry.ReqReport
}

// reply is what serve hands a transport to frame.
type reply struct {
	out     any
	err     error
	traceID string
	report  *telemetry.ReqReport
}

// serve runs one framed request: request metrics, the flight-recorder
// trace (adopting a sane inbound id — the router's propagation header —
// so one client request is one id across every recorder it touched),
// body decoding, the row's handler, outcome classification and panic
// isolation. ferr is a framing failure (oversized body, missing admin
// token, unknown TCP op) the transport found before the row could run;
// it is accounted exactly like a failure of the op itself. A panicking
// handler becomes a structured 500 and an increment of
// ca_server_panics_total instead of a killed process; the deferred
// accounting and the machine pool's Reset-on-Get keep the host
// consistent afterwards.
func (h *Host) serve(ctx context.Context, op *Op, adopt, key string, body []byte, ferr error) (rep reply) {
	start := time.Now()
	if h.Col != nil {
		h.Col.Requests.Inc()
		h.Col.InFlight.Add(1)
	}
	var rt *telemetry.ReqTrace
	if h.Ring != nil && op.Name != "" {
		if len(adopt) > 96 || strings.ContainsAny(adopt, " \t\r\n") {
			adopt = ""
		}
		rt = telemetry.NewReqTraceWithID(op.Name, adopt)
	}
	rep.traceID = rt.ID()
	defer func() {
		if rec := recover(); rec != nil {
			rep.out, rep.err = nil, Errorf(http.StatusInternalServerError, "internal panic: %v", rec)
			rep.report = h.finish(rt, "panic", fmt.Sprint(rec))
			if h.Col != nil {
				h.Col.Panics.Inc()
			}
		}
		if h.Col != nil {
			h.Col.RequestSeconds.Observe(time.Since(start).Seconds())
			h.Col.InFlight.Add(-1)
			if rep.err != nil {
				h.Col.RequestErrors.Inc()
			}
		}
	}()
	rep.out, rep.err = h.run(telemetry.WithReqTrace(ctx, rt), op, key, body, ferr)
	outcome, msg := outcomeOf(rep.err)
	rep.report = h.finish(rt, outcome, msg)
	return rep
}

// run decodes the row's request out of body — DecodeJSON, the one
// decoder behind every transport — and executes the row.
func (h *Host) run(ctx context.Context, op *Op, key string, body []byte, ferr error) (any, error) {
	if ferr != nil {
		return nil, ferr
	}
	var req any
	if op.New != nil && !(op.Optional && len(bytes.TrimSpace(body)) == 0) {
		req = op.New()
		if err := DecodeJSON(body, req); err != nil {
			return nil, Errorf(http.StatusBadRequest, "bad JSON request: %v", err)
		}
	}
	return op.Run(ctx, h.API, key, req)
}

func (h *Host) finish(rt *telemetry.ReqTrace, outcome, msg string) *telemetry.ReqReport {
	if h.Finish != nil {
		return h.Finish(rt, outcome, msg)
	}
	rt.Finish(outcome, msg)
	rep := rt.Report()
	h.Ring.Add(rep)
	return rep
}

// outcomeOf classifies an operation error for the trace record: injected
// faults, deadline expiry and sheds are distinguished from ordinary
// errors so a post-hoc /debug/requests lookup explains *why* a request
// failed.
func outcomeOf(err error) (outcome, msg string) {
	var e *Error
	switch {
	case err == nil:
		return "ok", ""
	case faults.IsInjected(err):
		return "fault", err.Error()
	case statusOf(err) == http.StatusGatewayTimeout:
		return "timeout", err.Error()
	case errors.As(err, &e) && e.RetryAfter > 0:
		return "shed", err.Error()
	default:
		return "error", err.Error()
	}
}
