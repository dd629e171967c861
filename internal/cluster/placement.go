package cluster

import (
	"context"
	"net/http"
	"sort"

	"cacheautomaton/internal/server"
)

// Compile places a rule set on the cluster: the primary (the key's
// first alive ring owner) compiles it, and each replica owner then gets
// it the way the reconciler ships one — the compiled-automaton artifact
// from the primary, installed without recompiling (ensureRuleset). A
// placement change requires quorum.
func (r *Router) Compile(ctx context.Context, name string, req server.CompileRequest) (*server.RulesetInfo, error) {
	r.mu.RLock()
	err := r.refuseLocked(true, "refusing placement change")
	targets := r.replicasLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errRetryAfter("no alive node to place rule set %q", name)
	}
	primary := targets[0]
	info, err := call[server.RulesetInfo](ctx, r, primary, "rulesets.compile", name, req)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	pr := r.rulesets[name]
	if pr == nil {
		pr = &placedRuleset{}
		r.rulesets[name] = pr
	}
	pr.gen++
	pr.req = req
	pr.info = *info
	pr.holders = map[string]int{primary: pr.gen}
	r.bumpRingLocked()
	r.mu.Unlock()

	for _, node := range targets[1:] {
		// The placement already serves on the primary; the reconciler
		// retries a replica that fails here.
		if err := r.ensureRuleset(ctx, node, name); err != nil {
			r.log.WarnContext(ctx, "replica ship failed", "ruleset", name, "node", node, "error", err)
		}
	}
	r.kickReconcile()
	return info, nil
}

// ensureRuleset makes node hold the current generation of name: it
// ships the artifact from an up-to-date alive holder, or — when every
// holder is gone (the all-replicas-died case) — falls back to
// recompiling from the stored definition on the target itself.
func (r *Router) ensureRuleset(ctx context.Context, node, name string) error {
	r.mu.RLock()
	pr := r.rulesets[name]
	if pr == nil {
		r.mu.RUnlock()
		return server.Errorf(http.StatusNotFound, "rule set %q is not placed", name)
	}
	gen := pr.gen
	req := pr.req
	if pr.holders[node] == gen {
		r.mu.RUnlock()
		return nil
	}
	var source string
	for holder, v := range pr.holders {
		if holder == node || v != gen {
			continue
		}
		if m := r.members[holder]; m != nil && m.state == stateAlive {
			source = holder
			break
		}
	}
	r.mu.RUnlock()

	if source != "" {
		art, err := call[server.Artifact](ctx, r, source, "rulesets.artifact", name, nil)
		if err == nil {
			if err = r.rpc(ctx, node, "rulesets.install", name, art, nil); err == nil {
				r.col.ArtifactsShipped.Inc()
				r.recordHolder(name, node, gen)
				return nil
			}
		}
		r.log.WarnContext(ctx, "artifact ship failed, falling back to recompile", "ruleset", name, "from", source, "to", node, "error", err)
	}
	if err := r.rpc(ctx, node, "rulesets.compile", name, req, nil); err != nil {
		return err
	}
	r.recordHolder(name, node, gen)
	return nil
}

func (r *Router) recordHolder(name, node string, gen int) {
	r.mu.Lock()
	if pr := r.rulesets[name]; pr != nil && pr.gen == gen {
		pr.holders[node] = gen
	}
	r.mu.Unlock()
}

// DeleteRuleset unplaces a rule set: quorum-gated fan-out delete to
// every holder, then the placement record is dropped.
func (r *Router) DeleteRuleset(ctx context.Context, name string) error {
	r.mu.Lock()
	pr := r.rulesets[name]
	if pr == nil {
		r.mu.Unlock()
		return server.Errorf(http.StatusNotFound, "no rule set %q", name)
	}
	if err := r.refuseLocked(true, "refusing placement change"); err != nil {
		r.mu.Unlock()
		return err
	}
	holders := make([]string, 0, len(pr.holders))
	for node := range pr.holders {
		holders = append(holders, node)
	}
	delete(r.rulesets, name)
	r.bumpRingLocked()
	r.mu.Unlock()

	for _, node := range holders {
		if err := r.rpc(ctx, node, "rulesets.delete", name, nil, nil); err != nil {
			if hopStatus(err) == http.StatusNotFound {
				continue
			}
			r.log.WarnContext(ctx, "delete fan-out failed", "ruleset", name, "node", node, "error", err)
		}
	}
	return nil
}

// Rulesets lists the cluster's placed rule sets (the placement
// primary's compile info), sorted by name.
func (r *Router) Rulesets() []server.RulesetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]server.RulesetInfo, 0, len(r.rulesets))
	for _, pr := range r.rulesets {
		out = append(out, pr.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ruleset describes one placed rule set.
func (r *Router) Ruleset(name string) (*server.RulesetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pr := r.rulesets[name]
	if pr == nil {
		return nil, server.Errorf(http.StatusNotFound, "no rule set %q", name)
	}
	info := pr.info
	return &info, nil
}
