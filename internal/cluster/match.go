package cluster

import (
	"context"
	"net/http"
	"time"

	"cacheautomaton/internal/server"
)

// Match serves a one-shot scan with hedged fan-out: the request goes to
// the rule set's primary holder, and if no answer arrives within
// HedgeDelay a replica is asked too — first good answer wins (matching
// is deterministic and read-only, so duplicate execution is safe and
// invisible). Each candidate is sent through rpc's retry policy — up to
// RPC.MaxAttempts with backoff — and only once that candidate has failed
// for good does the fall-through launch the next.
func (r *Router) Match(ctx context.Context, req server.MatchRequest) (*server.MatchResponse, error) {
	r.col.Proxied.Inc()
	candidates, err := r.matchCandidates(req.Ruleset)
	if err != nil {
		return nil, err
	}

	type result struct {
		node string
		resp *server.MatchResponse
		err  error
	}
	ch := make(chan result, len(candidates))
	next := 0
	launch := func() {
		node := candidates[next]
		next++
		go func() {
			resp, err := call[server.MatchResponse](ctx, r, node, "match", "", &req)
			ch <- result{node: node, resp: resp, err: err}
		}()
	}
	launch()
	inflight := 1
	hedged := false
	var hedgeC <-chan time.Time
	if r.cfg.HedgeDelay > 0 && next < len(candidates) {
		t := time.NewTimer(r.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case <-ctx.Done():
			return nil, server.Errorf(http.StatusServiceUnavailable, "match abandoned: %v", ctx.Err())
		case <-hedgeC:
			hedgeC = nil
			if next < len(candidates) {
				hedged = true
				r.col.HedgedMatches.Inc()
				launch()
				inflight++
			}
		case res := <-ch:
			if res.err == nil {
				if hedged && res.node != candidates[0] {
					r.col.HedgeWins.Inc()
				}
				return res.resp, nil
			}
			lastErr = res.err
			inflight--
			if st := hopStatus(res.err); st < 500 && st != http.StatusTooManyRequests {
				// The node answered: the request itself is bad. No other
				// replica will disagree — fail fast, don't burn the pool.
				if inflight == 0 {
					return nil, res.err
				}
				continue
			}
			if next < len(candidates) {
				launch()
				inflight++
			}
		}
	}
	r.col.ProxyErrors.Inc()
	if hopStatus(lastErr) < 500 {
		return nil, lastErr
	}
	return nil, errRetryAfter("match failed on all replicas: %v", lastErr)
}

// matchCandidates returns the alive holders of a rule set in ring
// order: refused while draining, 404 when the rule set is not placed,
// shed when no alive node holds it.
func (r *Router) matchCandidates(name string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := r.refuseLocked(false, ""); err != nil {
		return nil, err
	}
	pr := r.rulesets[name]
	if pr == nil {
		return nil, server.Errorf(http.StatusNotFound, "no rule set %q", name)
	}
	owners := r.aliveOwnersLocked("rs/" + name)
	out := owners[:0]
	for _, node := range owners {
		if pr.holders[node] == pr.gen {
			out = append(out, node)
		}
	}
	if len(out) == 0 {
		return nil, errRetryAfter("no alive replica holds rule set %q", name)
	}
	return out, nil
}
