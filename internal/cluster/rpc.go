package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// Fault injection seams of the cluster layer. "cluster.rpc" gates every
// inter-node call; "cluster.rpc.<nodeID>" gates calls to one node —
// enabling a rate-1 error rule on it partitions that node from the
// router (heartbeats included), which is how the chaos harness cuts
// links without touching the network stack.
const (
	faultRPC       = "cluster.rpc"
	faultRPCPrefix = "cluster.rpc."
)

// rpc issues one inter-node call — the op table's row named op, keyed
// by a rule-set name or node-local session id — under the router's
// retry policy (jittered exponential backoff, per-attempt timeouts).
// The node's URL re-resolves on every attempt so a rejoin mid-retry
// lands on the new address. A row marked Once (the feed) gets a single
// attempt whichever helper sends it: its recovery is checkpoint
// failover, never a resend.
func (r *Router) rpc(ctx context.Context, nodeID, op, key string, in, out any) error {
	route := server.Route(op)
	policy := r.cfg.RPC
	if policy.RetryIf == nil {
		policy.RetryIf = retryableRPC
	}
	if route.Once {
		policy.MaxAttempts = 1
	}
	start := time.Now()
	attempts, err := policy.Attempts(ctx, func(actx context.Context) error {
		url, uerr := r.memberURL(nodeID)
		if uerr != nil {
			return uerr
		}
		return r.rpcOnce(actx, nodeID, url, route.Method, route.URLPath(key), in, out)
	})
	r.col.RPCs.Inc()
	if attempts > 1 {
		r.col.RPCRetries.Add(int64(attempts - 1))
	}
	r.col.RPCSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		r.col.RPCErrors.Inc()
	}
	return err
}

// rpcOnce is one attempt: fault seams (noted on the router's trace),
// trace propagation, JSON in/out through the wire codec, structured
// errors back out. It never retries.
func (r *Router) rpcOnce(ctx context.Context, nodeID, url, method, path string, in, out any) error {
	rt := telemetry.ReqTraceFrom(ctx)
	if err := faults.Check(rt, faultRPC); err != nil {
		return err
	}
	if err := faults.Check(rt, faultRPCPrefix+nodeID); err != nil {
		return err
	}
	var body io.Reader
	if in != nil {
		// Not a pooled buffer: net/http may still read a request body
		// after Do returns.
		data, err := server.AppendJSON(nil, in)
		if err != nil {
			return fmt.Errorf("encode %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := rt.ID(); id != "" {
		req.Header.Set("X-CA-Trace-Id", id)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := server.GetBuffer()
	defer server.PutBuffer(buf)
	if err := server.ReadBody(buf, io.LimitReader(resp.Body, 256<<20), resp.ContentLength); err != nil {
		return fmt.Errorf("read %s %s from %s: %w", method, path, nodeID, err)
	}
	data := buf.Bytes()
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		msg := http.StatusText(resp.StatusCode)
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return server.Errorf(resp.StatusCode, "%s: %s %s: %s", nodeID, method, path, msg)
	}
	if out != nil {
		if err := server.DecodeJSON(data, out); err != nil {
			return fmt.Errorf("decode %s %s from %s: %w", method, path, nodeID, err)
		}
	}
	return nil
}

// hopStatus is the status one inter-node call ended with: the node's own
// answer, or 502 for a hop that never got a structured one (transport
// failure, injected partition fault) — the status the router's own
// transport renders such an error with.
func hopStatus(err error) int { return server.StatusOf(err, http.StatusBadGateway) }

// retryableRPC classifies inter-node errors: failed hops and server-side
// 5xx/429 retry (the node may be shedding), any other structured status
// is terminal.
func retryableRPC(err error) bool {
	st := hopStatus(err)
	return st >= 500 || st == http.StatusTooManyRequests
}

// call is rpc with a typed answer, so call sites name a row of the op
// table and its response type rather than a path.
func call[Out any](ctx context.Context, r *Router, node, op, key string, in any) (*Out, error) {
	var out Out
	if err := r.rpc(ctx, node, op, key, in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// nodeOpen opens (or, with a snapshot, resumes) a node-local session.
func (r *Router) nodeOpen(ctx context.Context, node, ruleset, snapshot string) (*server.SessionInfo, error) {
	return call[server.SessionInfo](ctx, r, node, "sessions.open", "", server.OpenSessionRequest{Ruleset: ruleset, SnapshotB64: snapshot})
}

// nodeFeed sends one feed; its row is Once, so rpc never resends it.
// A retry after an ambiguous failure could scan the chunk twice and
// duplicate its matches, so recovery is the checkpoint failover path —
// resume from the last acked post-feed snapshot and replay the one
// failed chunk exactly once.
func (r *Router) nodeFeed(ctx context.Context, node, localID string, req server.FeedRequest) (*server.FeedResponse, error) {
	return call[server.FeedResponse](ctx, r, node, "sessions.feed", localID, &req)
}
