package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"cacheautomaton/internal/cluster"
	"cacheautomaton/internal/telemetry"
)

// routerOpts carries the -nodes mode's flag subset into runRouter.
type routerOpts struct {
	httpAddr     string
	metricsAddr  string
	nodes        string
	replicas     int
	heartbeat    time.Duration
	hedge        time.Duration
	drainTimeout time.Duration
	slow         time.Duration
	ringSize     int
}

// runRouter is cad's cluster-router mode: instead of serving an
// automaton itself, it routes the HTTP API across the cad nodes named
// by -nodes — consistent-hash placement of rule sets and sessions,
// heartbeat membership, checkpoint-shipped session failover, hedged
// /match fan-out, and the /cluster routing table for clients that want
// to route directly. Nodes can join and leave at runtime through
// POST /cluster/join and DELETE /cluster/nodes/{id}.
func runRouter(ctx context.Context, opts routerOpts, logger *slog.Logger, stdout, stderr io.Writer, ready func(addrs)) int {
	r := cluster.NewRouter(cluster.Config{
		Replicas:          opts.replicas,
		HeartbeatInterval: opts.heartbeat,
		HedgeDelay:        opts.hedge,
		Logger:            logger,
		SlowRequest:       opts.slow,
		TraceRingSize:     opts.ringSize,
	})

	for _, spec := range strings.Split(opts.nodes, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		id, url, ok := strings.Cut(spec, "=")
		if !ok || id == "" || url == "" {
			fmt.Fprintf(stderr, "cad: bad -nodes entry %q (want id=url)\n", spec)
			return 2
		}
		if err := r.AddNode(ctx, id, url); err != nil {
			fmt.Fprintf(stderr, "cad: join %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "cad: router: node %s at %s\n", id, url)
	}

	var bound addrs
	if opts.metricsAddr != "" {
		ts, err := telemetry.Serve(opts.metricsAddr, nil)
		if err != nil {
			fmt.Fprintf(stderr, "cad: metrics endpoint: %v\n", err)
			return 1
		}
		defer ts.Close()
		bound.Metrics = ts.Addr()
		fmt.Fprintf(stdout, "cad: telemetry on http://%s/metrics\n", bound.Metrics)
	}

	ln, err := net.Listen("tcp", opts.httpAddr)
	if err != nil {
		fmt.Fprintf(stderr, "cad: listen %s: %v\n", opts.httpAddr, err)
		return 1
	}
	bound.HTTP = ln.Addr().String()
	httpSrv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "cad: cluster router on %s\n", bound.HTTP)

	if ready != nil {
		ready(bound)
	}

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		fmt.Fprintf(stderr, "cad: http: %v\n", err)
		return 1
	}

	// Same drain order as node mode: the router's /readyz flips 503 at
	// Shutdown start, so a balancer stops routing before listeners close.
	fmt.Fprintf(stdout, "cad: router draining (timeout %v)\n", opts.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	code := 0
	if err := r.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "cad: router drain: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "cad: http drain: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stdout, "cad: drained")
	return code
}
