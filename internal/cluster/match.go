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
// invisible). A failed candidate immediately falls through to the next.
func (r *Router) Match(ctx context.Context, req server.MatchRequest) (*server.MatchResponse, error) {
	r.col.Proxied.Inc()
	r.mu.RLock()
	draining := r.draining
	r.mu.RUnlock()
	if draining {
		return nil, server.Errorf(http.StatusServiceUnavailable, "router is draining")
	}
	candidates := r.matchCandidates(req.Ruleset)
	if candidates == nil {
		return nil, server.Errorf(http.StatusNotFound, "no rule set %q", req.Ruleset)
	}
	if len(candidates) == 0 {
		return nil, errRetryAfter("no alive replica holds rule set %q", req.Ruleset)
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
// affinity order (nil when the rule set is not placed at all).
func (r *Router) matchCandidates(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pr := r.rulesets[name]
	if pr == nil {
		return nil
	}
	out := []string{}
	for _, node := range r.ring.Owners("rs/"+name, r.ring.Len()) {
		if pr.holders[node] != pr.gen {
			continue
		}
		if m := r.members[node]; m != nil && m.state == stateAlive {
			out = append(out, node)
		}
	}
	return out
}
