package cluster

import (
	"context"
	"net/http"

	"cacheautomaton/internal/server"
)

// Handler returns the router's HTTP/JSON API: the rows of the node's op
// table that name a cluster op — cluster clients speak the same wire
// types to a router as to a single cad — plus the cluster-control rows
// below, router liveness and readiness, and the router's own flight
// recorder (DESIGN.md "Match serving" lists the routes). The router
// mints each trace id and every inter-node call the operation makes
// carries it in X-CA-Trace-Id, so one client request can be followed
// through the router's and each touched node's recorder under one id.
// Every response, including every error, is a JSON object; shed
// responses (overload, no quorum) carry a Retry-After header.
func (r *Router) Handler() http.Handler { return r.handler(256 << 20) }

// handler is Handler under a given body cap (artifact and snapshot
// payloads ride through the router, hence Handler's 256 MiB).
func (r *Router) handler(maxBody int64) http.Handler {
	rows := []server.Op{
		{Name: "cluster.table", Method: "GET", Path: "/cluster",
			Run: func(context.Context, server.API, string, any) (any, error) { return r.ClusterTable(), nil }},
		{Name: "cluster.join", Method: "POST", Path: "/cluster/join", New: func() any { return new(joinRequest) },
			Run: func(ctx context.Context, _ server.API, _ string, req any) (any, error) {
				if err := r.AddNode(ctx, req.(*joinRequest).ID, req.(*joinRequest).URL); err != nil {
					return nil, err
				}
				return r.ClusterTable(), nil
			}},
		{Name: "cluster.leave", Method: "DELETE", Path: "/cluster/nodes/{id}",
			Run: func(_ context.Context, _ server.API, id string, _ any) (any, error) {
				if err := r.RemoveNode(id); err != nil {
					return nil, err
				}
				return r.ClusterTable(), nil
			}},
	}
	for _, op := range server.Ops {
		if op.Cluster != "" {
			op.Name = "cluster." + op.Cluster
			rows = append(rows, op)
		}
	}
	host := &server.Host{
		API:     r,
		MaxBody: maxBody,
		// A bare error out of a router op is a failed hop (hopStatus).
		Fallback: http.StatusBadGateway,
		Ring:     r.traces,
	}
	return host.Handler(rows, r.healthz, r.readyz)
}

func (r *Router) healthz() (ok bool, body any) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	status := "ok"
	if r.draining {
		status = "draining"
	}
	return !r.draining, map[string]any{"status": status, "nodes": len(r.members), "sessions": len(r.sessions)}
}

func (r *Router) readyz() (ok bool, body any) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.draining, map[string]any{"ready": !r.draining, "quorum": r.quorumLocked()}
}

type joinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}
