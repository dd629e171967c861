package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/telemetry"
)

// The rule-set table: how a rule set gets into a node (install, behind
// Compile, InstallArtifact and Reload), out of it (DeleteRuleset), and
// what the node says about it (Ruleset, Rulesets, Artifact, ReadyDetail).

// ruleset is one compiled, immutable rule set. b is its request
// coalescer, nil unless Config.BatchWindow > 0; replacing a rule set
// replaces the batcher with it (pending batches on the old one still
// flush against the automaton their members were admitted to).
type ruleset struct {
	info RulesetInfo
	a    *ca.Automaton
	b    *batcher
	// req is the compile request that produced this rule set, kept so
	// Reload with an empty body can rebuild from the stored definition
	// and Artifact can ship it.
	req CompileRequest
}

// cacheKey derives the content address of a compile request: the rule
// text, front-end and every compile-shaping option, length-prefixed and
// format-version-bound inside caformat.NewKey. The rule-set *name* is
// deliberately excluded — two names over identical rules share one entry.
// TestCacheKeyCoversEveryCompileField fails when a field is added to
// CompileRequest and forgotten here.
func cacheKey(format string, req *CompileRequest) caformat.Key {
	parts := []string{
		format,
		req.Design,
		fmt.Sprintf("ci=%t dot=%t rep=%d seed=%d", req.CaseInsensitive, req.DotExcludesNewline, req.MaxRepeat, req.Seed),
		strconv.Itoa(len(req.Patterns)),
	}
	parts = append(parts, req.Patterns...)
	parts = append(parts, req.Text)
	return caformat.NewKey(parts...)
}

// Compile compiles req into a named rule set, replacing any previous set
// under that name (sessions opened against the old set keep running on
// it). A telemetry.ReqTrace carried by ctx is tagged with the rule-set
// name and records the compiler's own stages and the WAL append.
func (s *Server) Compile(ctx context.Context, name string, req CompileRequest) (*RulesetInfo, error) {
	return s.install(ctx, name, req, nil)
}

// InstallArtifact publishes a rule set from its shipped caformat
// artifact — the receiving half of cluster placement. The mapped
// automaton is loaded, never recompiled: an artifact is a compile-cache
// hit that arrived over the wire, so its bytes are stored in the cache
// under its definition's key and the definition is logged to the WAL,
// and a restart of this node replays the rule set as a cache load.
// The definition is therefore mandatory: without one the rule set could
// be neither WAL-logged nor reloaded from an empty body.
func (s *Server) InstallArtifact(ctx context.Context, name string, art Artifact) (*RulesetInfo, error) {
	if art.Req == nil {
		return nil, Errorf(http.StatusBadRequest, "missing req: an artifact ships with the compile request it was built from")
	}
	if art.ArtifactB64 == "" {
		return nil, Errorf(http.StatusBadRequest, "missing artifact_b64")
	}
	data, err := base64.StdEncoding.DecodeString(art.ArtifactB64)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "bad artifact base64: %v", err)
	}
	return s.install(ctx, name, *art.Req, data)
}

// Reload atomically swaps the named rule set under live traffic. A nil
// req recompiles (or cache-loads) the stored definition — the common
// "pick up a cache/config change" case; a non-nil req replaces the
// definition, like Compile, but 404s instead of creating a new name.
// reloadMu serializes reloads so two concurrent reloads of one name
// cannot publish versions out of order; the swap itself is publish's
// single map store under Server.mu, so readers never observe a partial
// state: in-flight leases finish on the old automaton, everything after
// the swap gets the new one.
func (s *Server) Reload(ctx context.Context, name string, req *CompileRequest) (*RulesetInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	rs, err := s.ruleset(name)
	if err != nil {
		return nil, err
	}
	if req == nil {
		req = &rs.req
	}
	info, err := s.install(ctx, name, *req, nil)
	if err != nil {
		return nil, err
	}
	s.col.Reloads.Inc()
	s.log.InfoContext(ctx, "ruleset reloaded", "ruleset", name, "version", info.Version)
	return info, nil
}

// install is the one door into the rule-set table, behind Compile,
// InstallArtifact and Reload alike: validate the definition, mark the
// name as building, get the automaton — from the shipped bytes art when
// the wire brought them, else from the compile cache, else by compiling
// — store its encoding in the cache unless that is where it came from,
// publish, log the definition to the WAL. Whichever way the automaton
// was produced, its stages (regexc.parse … machine.build, or
// caformat.decode on a load) are adopted into the request trace carried
// by ctx beside the cache's own (cache.get, cache.store) and the wal, so
// /debug/requests explains a slow PUT.
func (s *Server) install(ctx context.Context, name string, req CompileRequest, art []byte) (*RulesetInfo, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	rt := telemetry.ReqTraceFrom(ctx)
	rt.SetRuleset(name)
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return nil, Errorf(http.StatusBadRequest, "bad ruleset name %q", name)
	}
	opts := ca.Options{
		RunObserver:        s.runs,
		CaseInsensitive:    req.CaseInsensitive,
		DotExcludesNewline: req.DotExcludesNewline,
		MaxRepeat:          req.MaxRepeat,
		Seed:               req.Seed,
	}
	if req.Design != "" {
		var err error
		if opts.Design, err = ca.ParseDesign(req.Design); err != nil {
			return nil, Errorf(http.StatusBadRequest, "%v", err)
		}
	}
	// Validate inputs before consulting the cache so malformed requests
	// fail identically with and without a cache attached.
	format := cmp.Or(req.Format, "regex")
	switch format {
	case "regex":
		if len(req.Patterns) == 0 {
			return nil, Errorf(http.StatusBadRequest, "regex format needs patterns")
		}
	case "anml", "snort", "clamav":
		if req.Text == "" {
			return nil, Errorf(http.StatusBadRequest, "%s format needs text", format)
		}
	default:
		return nil, Errorf(http.StatusBadRequest, "unknown format %q (want regex, anml, snort or clamav)", format)
	}
	// From here the build is real work: surface it in the /readyz
	// detail so a cluster health checker sees "warming", not silence.
	s.mu.Lock()
	s.building[name]++
	cache := s.cache
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.building[name]--; s.building[name] == 0 {
			delete(s.building, name)
		}
		s.mu.Unlock()
	}()

	start := time.Now()
	key := cacheKey(format, &req)
	var a *ca.Automaton
	switch {
	case art != nil:
		if a, err = ca.Load(bytes.NewReader(art), opts); err != nil {
			return nil, Errorf(http.StatusUnprocessableEntity, "load artifact: %v", err)
		}
	case cache != nil:
		a = s.cacheLoad(ctx, cache, key, name, opts)
	}
	cached := a != nil
	if !cached {
		switch format {
		case "regex":
			a, err = ca.CompileRegex(req.Patterns, opts)
		case "anml":
			a, err = ca.CompileANML(strings.NewReader(req.Text), opts)
		case "snort":
			a, err = ca.CompileSnortRules(req.Text, opts)
		case "clamav":
			a, _, err = ca.CompileClamAVDatabase(req.Text, opts)
		}
		if err != nil {
			return nil, Errorf(http.StatusUnprocessableEntity, "compile: %v", err)
		}
	}
	rt.Adopt(a.CompileReport())
	if cache != nil && (!cached || art != nil) {
		// Compiled here or shipped here: either way the cache has not seen
		// these bytes, and the next start of this node should.
		sp := rt.StartStage("cache.store")
		sp.SetAttr("bytes", int64(s.cacheStore(ctx, cache, key, name, a, art)))
		sp.End()
	}

	names := a.SignatureNames()
	patterns := 0
	switch format {
	case "regex":
		patterns = len(req.Patterns)
	case "clamav":
		patterns = len(names)
	}
	rs := &ruleset{a: a, req: req, info: RulesetInfo{
		Name:           name,
		Format:         format,
		Patterns:       patterns,
		States:         a.States(),
		Partitions:     a.Partitions(),
		CacheMB:        a.CacheUsageMB(),
		CompileMS:      float64(time.Since(start).Microseconds()) / 1000,
		SignatureNames: names,
		Cached:         cached,
	}}
	s.publish(name, rs)
	s.walAppend(rt, walRecord{Kind: "compile", Name: name, Req: &rs.req})
	s.log.InfoContext(ctx, "ruleset installed",
		"ruleset", name, "format", format, "states", rs.info.States,
		"partitions", rs.info.Partitions, "compile_ms", rs.info.CompileMS,
		"cached", cached, "shipped", art != nil, "version", rs.info.Version)
	info := rs.info
	return &info, nil
}

// cacheLoad returns the automaton cached under key, or nil: a miss, an
// unreadable entry, or a corrupted one — which is evicted and falls back
// to a full compile (which re-stores it), never a failed boot or request.
// The read is the request's cache.get stage, marked with its outcome:
// hit, miss, or corrupt (an entry that is there but unreadable or does
// not decode); the decode of a hit is the caformat.decode stage after it.
func (s *Server) cacheLoad(ctx context.Context, cache *caformat.Cache, key caformat.Key, name string, opts ca.Options) *ca.Automaton {
	sp := telemetry.ReqTraceFrom(ctx).StartStage("cache.get")
	data, err := cache.Get(key)
	sp.End()
	switch {
	case err == nil:
		sp.SetAttr("bytes", int64(len(data)))
		a, lerr := ca.Load(bytes.NewReader(data), opts)
		if lerr == nil {
			sp.SetAttr("hit", 1)
			s.col.CacheHits.Inc()
			return a
		}
		sp.SetAttr("corrupt", 1)
		s.col.CacheErrors.Inc()
		rmErr := cache.Remove(key)
		s.log.WarnContext(ctx, "compile cache: corrupted entry evicted",
			"ruleset", name, "key", key.String(), "error", lerr, "remove_error", rmErr)
	case !errors.Is(err, os.ErrNotExist):
		sp.SetAttr("corrupt", 1)
		s.col.CacheErrors.Inc()
		s.log.WarnContext(ctx, "compile cache: read failed", "ruleset", name, "key", key.String(), "error", err)
	default:
		sp.SetAttr("miss", 1)
	}
	s.col.CacheMisses.Inc()
	return nil
}

// cacheStore puts a's encoding under key — the bytes the wire brought
// when there are any (they decoded to a), else a's own Save — and returns
// how many bytes it stored. A failed store costs the next start a
// compile, not this request its answer.
func (s *Server) cacheStore(ctx context.Context, cache *caformat.Cache, key caformat.Key, name string, a *ca.Automaton, data []byte) int {
	var err error
	if data == nil {
		var buf bytes.Buffer
		err = a.Save(&buf)
		data = buf.Bytes()
	}
	if err == nil {
		err = cache.Put(key, data)
	}
	if err != nil {
		s.col.CacheErrors.Inc()
		s.log.WarnContext(ctx, "compile cache: store failed", "ruleset", name, "key", key.String(), "error", err)
		return 0
	}
	return len(data)
}

// publish atomically swaps the named rule set in. The single map store
// under Server.mu is the atomicity point of compile, reload and
// artifact install alike: in-flight requests that already resolved the
// old *ruleset finish on the old automaton; every later lookup — new
// matches, sessions, batched flushes — gets the new one; sessions
// opened against the old version hold its Automaton pointer and keep
// it until close.
func (s *Server) publish(name string, rs *ruleset) {
	if s.cfg.BatchWindow > 0 {
		rs.b = &batcher{s: s, rs: rs}
	}
	s.mu.Lock()
	rs.info.Version = 1
	if old := s.rulesets[name]; old != nil {
		rs.info.Version = old.info.Version + 1
	}
	s.rulesets[name] = rs
	s.col.Rulesets.Set(int64(len(s.rulesets)))
	s.mu.Unlock()
}

// Artifact exports the named rule set as a shippable Artifact: its
// serialized caformat encoding plus the originating compile request.
// The cluster router fetches it from any holder and installs it on the
// nodes the placement ring assigns, so replicas never recompile.
func (s *Server) Artifact(name string) (*Artifact, error) {
	rs, err := s.ruleset(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rs.a.Save(&buf); err != nil {
		return nil, Errorf(http.StatusInternalServerError, "serialize %q: %v", name, err)
	}
	req := rs.req
	return &Artifact{
		Name:        name,
		Version:     rs.info.Version,
		Req:         &req,
		ArtifactB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
	}, nil
}

// ReadyDetail reports readiness with per-ruleset compile states — the
// structured body behind /readyz that lets a cluster health checker
// distinguish a warming node from a dying one. The detail is derived,
// not stored: every published rule set reads "cached" or "ready" by how
// it was produced, overlaid with "reloading" (or, for a name not yet
// published, "compiling") while an install of that name is in progress.
func (s *Server) ReadyDetail() ReadyDetail {
	ready := s.Readyz()
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := ReadyDetail{Ready: ready, Draining: s.draining}
	if n := len(s.rulesets) + len(s.building); n > 0 {
		d.Rulesets = make(map[string]string, n)
	}
	for name, rs := range s.rulesets {
		d.Rulesets[name] = "ready"
		if rs.info.Cached {
			d.Rulesets[name] = "cached"
		}
	}
	for name := range s.building {
		if _, loaded := d.Rulesets[name]; loaded {
			d.Rulesets[name] = "reloading"
		} else {
			d.Rulesets[name] = "compiling"
		}
	}
	return d
}

// Ruleset returns one rule set's description.
func (s *Server) Ruleset(name string) (*RulesetInfo, error) {
	rs, err := s.ruleset(name)
	if err != nil {
		return nil, err
	}
	info := rs.info
	return &info, nil
}

// Rulesets lists the loaded rule sets sorted by name.
func (s *Server) Rulesets() []RulesetInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RulesetInfo, 0, len(s.rulesets))
	for _, rs := range s.rulesets {
		out = append(out, rs.info)
	}
	slices.SortFunc(out, func(a, b RulesetInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// DeleteRuleset unloads a rule set. Open sessions on it keep running.
// Like every mutating op it is refused while draining, so Shutdown waits
// for its tombstone before it closes the WAL.
func (s *Server) DeleteRuleset(ctx context.Context, name string) error {
	done, err := s.begin()
	if err != nil {
		return err
	}
	defer done()
	rt := telemetry.ReqTraceFrom(ctx)
	rt.SetRuleset(name)
	s.mu.Lock()
	if _, ok := s.rulesets[name]; !ok {
		s.mu.Unlock()
		return Errorf(http.StatusNotFound, "no ruleset %q", name)
	}
	delete(s.rulesets, name)
	s.col.Rulesets.Set(int64(len(s.rulesets)))
	s.mu.Unlock()
	s.walAppend(rt, walRecord{Kind: "delete", Name: name})
	return nil
}

func (s *Server) ruleset(name string) (*ruleset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.rulesets[name]
	if !ok {
		return nil, Errorf(http.StatusNotFound, "no ruleset %q", name)
	}
	return rs, nil
}
