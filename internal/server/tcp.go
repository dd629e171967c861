package server

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"cacheautomaton/internal/faults"
)

// The TCP transport frames the op table as one JSON object per line: the
// client writes {"op": "...", ...fields...}\n and reads one JSON line
// back — {"ok":true, ...result...} or {"ok":false,"error":...,"status":N}.
// The envelope names the op and its key ("name" for a rule set,
// "session" for a session); the rest of the line is the row's request
// object, exactly as the HTTP body would carry it (DESIGN.md "Match
// serving" lists the ops).
//
// Line framing keeps the protocol trivially scriptable (nc, or any
// language's readline + JSON) while still carrying binary payloads via
// the *_b64 fields.

// tcpReply is the response envelope of one line: result when ok, error
// and status when not. TraceID is the request's flight-recorder id (the
// TCP analogue of the X-CA-Trace-Id header).
type tcpReply struct {
	OK      bool   `json:"ok"`
	Result  any    `json:"result,omitempty"`
	Error   string `json:"error,omitempty"`
	Status  int    `json:"status,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// tcpEnvelope is the part of a line that picks the row and its key.
type tcpEnvelope struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	Session string `json:"session"`
}

// TCPServer serves the line-framed protocol on one listener.
type TCPServer struct {
	s  *Server
	ln net.Listener

	// baseCtx parents every request executed on this transport; Shutdown
	// cancels it at the drain deadline so in-flight ops abort through the
	// engine's cancellation path instead of being cut mid-write by
	// forceClose alone.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	conns  map[*tcpConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// tcpConn is one client connection; busy is true while a request line is
// being executed, so Shutdown can close idle connections immediately
// (mirroring http.Server.Shutdown) and wait only for in-flight work.
// busy and closing share one mutex: a line that Scan has already read is
// only executed if Shutdown has not yet claimed the conn, so an op never
// runs after its response channel is gone.
type tcpConn struct {
	net.Conn
	mu      sync.Mutex
	busy    bool // a request line is executing
	closing bool // Shutdown decided to close this conn
}

// beginRequest marks the conn busy and reports whether the request may
// execute; it refuses when Shutdown already claimed the conn (the line
// was read before the close landed — executing it would lose the
// response, and with it any one-shot state such as a suspend snapshot).
func (c *tcpConn) beginRequest() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing {
		return false
	}
	c.busy = true
	return true
}

// endRequest clears busy and reports whether Shutdown wants the conn
// gone, so the serve loop stops instead of reading another line.
func (c *tcpConn) endRequest() (closing bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	return c.closing
}

// closeIfIdle closes the conn unless a request is executing; once
// claimed, no further request lines will run on it.
func (c *tcpConn) closeIfIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.busy {
		c.closing = true
		c.Conn.Close()
	}
}

// forceClose closes the conn regardless of in-flight work (drain
// deadline expired).
func (c *tcpConn) forceClose() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	c.Conn.Close()
}

// ServeTCP starts serving the line protocol on ln until Shutdown (or a
// listener error). It returns immediately; connections are handled on
// their own goroutines.
func (s *Server) ServeTCP(ln net.Listener) *TCPServer {
	t := &TCPServer{s: s, ln: ln, conns: make(map[*tcpConn]struct{})}
	t.baseCtx, t.cancel = context.WithCancel(context.Background())
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal accept error
		}
		conn := &tcpConn{Conn: c}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// Addr returns the listener address.
func (t *TCPServer) Addr() net.Addr { return t.ln.Addr() }

func (t *TCPServer) serveConn(conn *tcpConn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	// Dropped-connection injection point: the conn dies before serving a
	// line, as if the network reset it — clients must see a clean close,
	// and the server must leak nothing. No request is in flight yet, so
	// the fault lands on a synthetic conn-scoped trace, which only a
	// fired fault finishes into the ring.
	rt := t.s.newTrace("tcp.conn")
	if err := faults.Check(rt, "server.tcp.conn"); err != nil {
		t.s.finishTrace(rt, "fault", err.Error())
		return
	}
	sc := bufio.NewScanner(conn)
	// Lines carry base64 payloads: size the scanner for the body cap plus
	// base64 expansion and envelope overhead.
	max := int(t.s.cfg.MaxBodyBytes)*4/3 + 4096
	sc.Buffer(make([]byte, 0, 64*1024), max)
	// Each reply is one json.Encoder line: the object and its newline,
	// in one Write.
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !conn.beginRequest() {
			return // Shutdown claimed the conn after this line was read
		}
		err := enc.Encode(t.dispatch(t.baseCtx, line))
		if conn.endRequest() || err != nil {
			return
		}
	}
	// An over-long line dies in framing: it is one request, counted and
	// answered 413 like an oversized HTTP body. Torn lines surface as a
	// final structured error when the connection is still writable.
	switch err := sc.Err(); {
	case errors.Is(err, bufio.ErrTooLong):
		if conn.beginRequest() {
			_ = enc.Encode(tcpAnswer(t.s.host.serve(t.baseCtx, &Op{}, "", "", nil,
				Errorf(http.StatusRequestEntityTooLarge, "request line exceeds %d bytes", max))))
			conn.endRequest()
		}
	case err != nil && !errors.Is(err, net.ErrClosed):
		_ = enc.Encode(tcpReply{Error: "read: " + err.Error(), Status: http.StatusBadRequest})
	}
}

// dispatch frames one line for serve: the envelope picks the row and
// its key, and the same line is the row's request body. Malformed input
// yields a structured error line, never a dropped connection or a panic.
func (t *TCPServer) dispatch(ctx context.Context, line []byte) tcpReply {
	var (
		env  tcpEnvelope
		op   *Op
		key  string
		ferr error
	)
	if err := json.Unmarshal(line, &env); err != nil {
		op, ferr = &Op{}, Errorf(http.StatusBadRequest, "bad JSON request: %v", err) // nameless: no trace
	} else if op = tcpOps[env.Op]; op == nil {
		op = &Op{Name: "tcp." + cmp.Or(env.Op, "unknown")}
		ferr = Errorf(http.StatusBadRequest, "unknown op %q", env.Op)
		if env.Op == "" {
			ferr = Errorf(http.StatusBadRequest, "missing op")
		}
	} else if _, wildcard, _ := op.split(); wildcard == "name" {
		key = env.Name
	} else {
		key = env.Session
	}
	return tcpAnswer(t.s.host.serve(ctx, op, "", key, line, ferr))
}

// tcpAnswer is the line that answers what serve returned.
func tcpAnswer(rep reply) tcpReply {
	if rep.err != nil {
		return tcpReply{Error: rep.err.Error(), Status: statusOf(rep.err), TraceID: rep.traceID}
	}
	return tcpReply{OK: true, Result: rep.out, TraceID: rep.traceID}
}

// Shutdown stops accepting, closes idle connections immediately (like
// http.Server.Shutdown), waits for in-flight request lines to deliver
// their responses, and force-closes whatever remains when ctx expires.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		t.ln.Close()
	}
	t.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		t.mu.Lock()
		for c := range t.conns {
			c.closeIfIdle()
		}
		t.mu.Unlock()
		select {
		case <-finished:
			t.cancel()
			return nil
		case <-ctx.Done():
			// Abort in-flight ops through the engine's cancellation path
			// first, then cut whatever still won't finish.
			t.cancel()
			t.mu.Lock()
			for c := range t.conns {
				c.forceClose()
			}
			t.mu.Unlock()
			<-finished
			return ctx.Err()
		case <-tick.C:
		}
	}
}
