package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cacheautomaton/internal/server"
)

// httpFront is a handler behind a real loopback listener.
type httpFront struct {
	srv  *http.Server
	url  string
	done chan error
}

func serveHTTP(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

// shutdown stops the listener, waits for the serve goroutine, and
// reports anything other than the expected ErrServerClosed.
func (f *httpFront) shutdown(ctx context.Context) error {
	err := f.srv.Shutdown(ctx)
	if serr := <-f.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// wireClient is the load generator's side of the loopback connections:
// one transport holding at most conns keep-alive connections.
type wireClient struct {
	hc *http.Client
	tr *http.Transport
}

func newWireClient(conns int) *wireClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &wireClient{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *wireClient) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply. lat is what the caller
// of the service waits: from sending to the last byte of the reply.
func (c *wireClient) do(ctx context.Context, method, url string, body []byte) (status int, reply []byte, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	reply, err = io.ReadAll(resp.Body)
	lat = time.Since(t0)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, reply, lat, err
}

// clientLog is one closed-loop client's record of a round.
type clientLog struct {
	lat    []time.Duration
	failed int64
}

func (l *clientLog) record(lat time.Duration, ok bool) {
	l.lat = append(l.lat, lat)
	if !ok {
		l.failed++
	}
}

// loopResult is a closed-loop round: every operation's latency, how
// many failed, and the wall time until the last client finished.
type loopResult struct {
	lat    []time.Duration
	failed int64
	wall   time.Duration
}

// closedLoop runs clients goroutines for about d. Each calls body again
// as soon as its previous call returns — a caller of /match waits for
// its reply before sending the next request — and finishes the call in
// flight when d runs out. A body error aborts the round.
func closedLoop(ctx context.Context, clients int, d time.Duration, body func(ctx context.Context, client, iter int, log *clientLog) error) (loopResult, error) {
	logs := make([]clientLog, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; time.Since(start) < d && ctx.Err() == nil; iter++ {
				if errs[c] = body(ctx, c, iter, &logs[c]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	for c := range logs {
		res.lat = append(res.lat, logs[c].lat...)
		res.failed += logs[c].failed
	}
	return res, errors.Join(errs...)
}

// wireDigest hashes the matches of a wire reply.
func wireDigest(ms []server.WireMatch) digest {
	var d digest
	for _, m := range ms {
		d.add(m.Offset, int32(m.Pattern))
	}
	return d
}

// shutdownServer drains a server and reports a failed drain.
func shutdownServer(ctx context.Context, s *server.Server) error {
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}
