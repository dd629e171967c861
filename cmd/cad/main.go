// Command cad is the Cache Automaton match-serving daemon: it loads rule
// sets, compiles them onto the simulated in-cache automaton, and serves
// concurrent matching over HTTP/JSON and an optional line-framed TCP
// protocol.
//
// Usage:
//
//	cad -http :8480
//	cad -http :8480 -rules snort.rules -format snort -ruleset ids
//	cad -http :8480 -tcp :8481 -metrics-addr :8482 -workers 8
//
// The HTTP API (see internal/server) compiles rule sets with
// PUT /rulesets/{name}, scans with POST /match, and streams with
// POST /sessions + /sessions/{id}/feed; /sessions/{id}/suspend serializes
// a session's architectural state for migration to another cad. With
// -metrics-addr, a telemetry endpoint serves /metrics, /metrics.json,
// /debug/vars and /debug/pprof.
//
// Batched serving: -batch-window turns on the request coalescer —
// concurrent small unsharded /match requests against one rule set wait
// up to the window and run through one leased machine as a single
// batched sweep (-batch-max bounds a batch; requests over 256 KiB and
// deadline-critical ones bypass and serve per-request). Match sets
// are bit-identical to per-request serving; see the README's "Batched
// serving" walkthrough.
//
// Router mode: with -nodes id=url,... cad serves the cluster API
// instead of an automaton — consistent-hash placement of rule sets and
// sessions across the named cad nodes (compiled artifacts shipped to
// replicas, never recompiled), heartbeat membership with suspect/dead
// detection, checkpoint-shipped session failover, hedged /match
// fan-out, and GET /cluster for clients that route directly. See the
// README's "Cluster serving" walkthrough.
//
// Resilience: -request-timeout puts a server-side execution deadline on
// every match and feed (checked at sub-batch granularity; a feed cut off
// mid-chunk returns its partial matches with "truncated":true and the
// client re-sends the suffix). -wal-dir enables the session write-ahead
// log: compiles and per-feed session checkpoints are appended to a
// checksummed log that a restarting cad replays, so rule sets and open
// sessions survive kill -9 bit-identically. -cache-dir enables the
// content-addressed compile cache: every compiled automaton is
// serialized (internal/caformat) under hash(rules, front-end, options),
// so preload and WAL replay load instead of recompiling, and
// POST /rulesets/{name}/reload (guarded by -admin-token when set) swaps
// a rule set atomically under live traffic. /healthz answers liveness;
// /readyz flips to 503 at drain start before any listener closes. On
// SIGINT/SIGTERM cad drains gracefully: in-flight requests finish
// (bounded by -drain-timeout), then sessions close and their leased
// machines are released (their WAL checkpoints are kept, so a successor
// process resumes them).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cacheautomaton/internal/rulefmt"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// addrs reports the listeners run actually bound (useful with ":0").
type addrs struct {
	HTTP, TCP, Metrics string
}

// run is the testable body of cad: it serves until ctx is canceled, then
// drains. ready (optional) is called once with the bound addresses.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(addrs)) int {
	fs := flag.NewFlagSet("cad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "127.0.0.1:8480", "serve the HTTP/JSON API on this address")
	tcpAddr := fs.String("tcp", "", "also serve the line-framed TCP protocol on this address")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	rules := fs.String("rules", "", "preload a rule file into ruleset -ruleset")
	format := fs.String("format", "regex", "preload format: regex, anml, snort or clamav")
	rulesetName := fs.String("ruleset", "default", "name for the preloaded rule set")
	design := fs.String("design", "perf", "preload design: perf (CA_P) or space (CA_S)")
	caseIns := fs.Bool("i", false, "preload case-insensitively")
	workers := fs.Int("workers", 0, "bound on concurrent one-shot matches (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "bound on queued matches before shedding 503s (0 = 4x workers)")
	queueWait := fs.Duration("queue-wait", 2*time.Second, "max wait for a match worker slot")
	maxShards := fs.Int("max-shards", 0, "cap on per-request match shards (0 = GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 8<<20, "request body and payload cap in bytes")
	maxSessions := fs.Int("max-sessions", 1024, "bound on open streaming sessions")
	sessionIdle := fs.Duration("session-idle", 5*time.Minute, "reap sessions idle this long (<0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight work on shutdown")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side execution deadline per match/feed (0 disables)")
	walDir := fs.String("wal-dir", "", "directory for the session write-ahead log (crash recovery); empty disables")
	cacheDir := fs.String("cache-dir", "", "directory for the content-addressed compile cache: preload and WAL replay load serialized automata instead of recompiling; empty disables")
	adminToken := fs.String("admin-token", "", "bearer token required by admin endpoints (rule-set reload); empty leaves them open")
	slowMS := fs.Int("slow-ms", 250, "flight-recorder slow threshold in ms: requests at or above it are pinned and logged (<0 disables slow pinning)")
	traceRing := fs.Int("trace-ring", telemetry.DefaultTraceRingSize, "flight-recorder ring size: last N traces plus last N slow/error traces retained (0 disables tracing)")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	batchWindow := fs.Duration("batch-window", 0, "coalesce concurrent small matches into shared batched sweeps, waiting up to this long to fill a batch (0 disables)")
	batchMax := fs.Int("batch-max", 0, "max requests per batch (0 = 64; needs -batch-window)")
	nodes := fs.String("nodes", "", "router mode: comma-separated id=url cad nodes to route across (e.g. n1=http://10.0.0.1:8480,n2=http://10.0.0.2:8480); -http serves the cluster API instead of a node")
	replicas := fs.Int("replicas", 0, "router mode: nodes holding each rule set (0 = 2)")
	heartbeat := fs.Duration("heartbeat", 0, "router mode: health-check interval (0 = 250ms)")
	hedge := fs.Duration("hedge", 0, "router mode: wait on the primary before hedging a /match to a replica (0 = 30ms, negative disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "cad: bad -log-format %q (want text or json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)
	// 0 in a Config means "use the default", so the flags' "off" values
	// map to -1: a negative -slow-ms disables slow pinning, and a
	// -trace-ring of 0 or less disables tracing.
	slow := time.Duration(*slowMS) * time.Millisecond
	if *slowMS < 0 {
		slow = -1
	}
	ringSize := *traceRing
	if ringSize <= 0 {
		ringSize = -1
	}

	if *nodes != "" {
		return runRouter(ctx, routerOpts{
			httpAddr:     *httpAddr,
			metricsAddr:  *metricsAddr,
			nodes:        *nodes,
			replicas:     *replicas,
			heartbeat:    *heartbeat,
			hedge:        *hedge,
			drainTimeout: *drainTimeout,
			slow:         slow,
			ringSize:     ringSize,
		}, logger, stdout, stderr, ready)
	}

	s := server.New(server.Config{
		MaxBodyBytes:   *maxBody,
		MatchWorkers:   *workers,
		QueueDepth:     *queue,
		QueueWait:      *queueWait,
		MaxShards:      *maxShards,
		MaxSessions:    *maxSessions,
		SessionIdle:    *sessionIdle,
		RequestTimeout: *requestTimeout,
		SlowRequest:    slow,
		TraceRingSize:  ringSize,
		Logger:         logger,
		BatchWindow:    *batchWindow,
		BatchMax:       *batchMax,
		AdminToken:     *adminToken,
	})

	if *cacheDir != "" {
		// Attach before the WAL so replay's recompiles hit the cache: N
		// replayed sessions on one rule set cost at most one compile ever.
		if err := s.AttachCache(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "cad: cache %s: %v\n", *cacheDir, err)
			return 1
		}
		fmt.Fprintf(stdout, "cad: compile cache in %s\n", *cacheDir)
	}

	if *walDir != "" {
		// Replay before preload and before any listener opens: recovered
		// rule sets and sessions must be visible to the first request.
		st, err := s.AttachWAL(*walDir)
		if err != nil {
			fmt.Fprintf(stderr, "cad: wal %s: %v\n", *walDir, err)
			return 1
		}
		fmt.Fprintf(stdout, "cad: wal: replayed %d rulesets, resumed %d sessions (%d skipped)\n",
			st.Rulesets, st.Sessions, st.SkippedSessions)
	}

	if *rules != "" {
		info, err := preload(s, *rules, *format, *rulesetName, *design, *caseIns)
		if err != nil {
			fmt.Fprintf(stderr, "cad: preload %s: %v\n", *rules, err)
			return 1
		}
		fmt.Fprintf(stdout, "cad: ruleset %q: %d patterns, %d states, %d partitions, %.2f MB cache, compiled in %.1f ms\n",
			info.Name, info.Patterns, info.States, info.Partitions, info.CacheMB, info.CompileMS)
	}

	var bound addrs

	// The telemetry endpoint opens before the API listeners: its address
	// is printed first, so a supervisor scanning startup logs knows every
	// bound address by the time the HTTP line (the "serving" signal)
	// appears.
	if *metricsAddr != "" {
		ts, err := telemetry.Serve(*metricsAddr, nil)
		if err != nil {
			fmt.Fprintf(stderr, "cad: metrics endpoint: %v\n", err)
			return 1
		}
		defer ts.Close()
		bound.Metrics = ts.Addr()
		fmt.Fprintf(stdout, "cad: telemetry on http://%s/metrics\n", bound.Metrics)
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintf(stderr, "cad: listen %s: %v\n", *httpAddr, err)
		return 1
	}
	bound.HTTP = ln.Addr().String()
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "cad: HTTP API on %s\n", bound.HTTP)

	var tcpSrv *server.TCPServer
	if *tcpAddr != "" {
		tln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "cad: listen %s: %v\n", *tcpAddr, err)
			httpSrv.Close()
			return 1
		}
		tcpSrv = s.ServeTCP(tln)
		bound.TCP = tcpSrv.Addr().String()
		fmt.Fprintf(stdout, "cad: TCP line protocol on %s\n", bound.TCP)
	}

	if ready != nil {
		ready(bound)
	}

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		fmt.Fprintf(stderr, "cad: http: %v\n", err)
		return 1
	}

	// Flip readiness first — /readyz answers 503 while every listener is
	// still open, so load balancers stop routing before anything closes.
	s.SetReady(false)
	fmt.Fprintf(stdout, "cad: draining (timeout %v)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "cad: http drain: %v\n", err)
		code = 1
	}
	if tcpSrv != nil {
		if err := tcpSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(stderr, "cad: tcp drain: %v\n", err)
			code = 1
		}
	}
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "cad: session drain: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stdout, "cad: drained")
	return code
}

// preload compiles a rule file into the server before it starts serving.
func preload(s *server.Server, path, format, name, design string, caseIns bool) (*server.RulesetInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	req := server.CompileRequest{Format: format, Design: design, CaseInsensitive: caseIns}
	if format == "regex" {
		req.Patterns = rulefmt.Patterns(string(data))
	} else {
		req.Text = string(data)
	}
	return s.Compile(context.Background(), name, req)
}
