package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// bootNode is a server with the compile cache and the WAL attached, the
// way `cad -cache-dir -wal-dir` starts one.
func bootNode(t *testing.T, cacheDir, walDir string) *Server {
	t.Helper()
	s := New(Config{Registry: telemetry.NewRegistry()})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if err := s.AttachCache(cacheDir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachWAL(walDir); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplicaRestartLoadsFromCache: node A compiles, replica B installs
// A's shipped artifact with its cache and WAL attached, B restarts. The
// WAL replays B's "compile" record into a cache that holds the shipped
// bytes, so the restart loads — "replicas never recompile" holds across
// a restart, not only at placement time.
func TestReplicaRestartLoadsFromCache(t *testing.T) {
	ctx := context.Background()
	a, _ := testServer(t, Config{})
	if _, err := a.Compile(ctx, "ids", CompileRequest{Patterns: []string{"needle", "ha+y"}, CaseInsensitive: true}); err != nil {
		t.Fatal(err)
	}
	art, err := a.Artifact("ids")
	if err != nil {
		t.Fatal(err)
	}

	cacheDir, walDir := t.TempDir(), t.TempDir()
	b1 := bootNode(t, cacheDir, walDir)
	info, err := b1.InstallArtifact(ctx, "ids", *art)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached || info.Patterns != 2 || info.Format != "regex" {
		t.Fatalf("installed info = %+v, want a cached 2-pattern regex set", info)
	}
	// The cache was not consulted (the bytes came over the wire) but now
	// holds exactly one entry: the shipped encoding under the definition's key.
	if h, m := b1.col.CacheHits.Value(), b1.col.CacheMisses.Value(); h != 0 || m != 0 {
		t.Fatalf("install: hits=%d misses=%d, want 0/0", h, m)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.caf")); len(entries) != 1 {
		t.Fatalf("cache entries after install = %v, want exactly 1", entries)
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := b1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	b2 := bootNode(t, cacheDir, walDir)
	ri, err := b2.Ruleset("ids")
	if err != nil {
		t.Fatalf("replayed rule set: %v", err)
	}
	if h, m, e := b2.col.CacheHits.Value(), b2.col.CacheMisses.Value(), b2.col.CacheErrors.Value(); !ri.Cached || h != 1 || m != 0 || e != 0 {
		t.Fatalf("restarted replica: cached=%v hits=%d misses=%d errors=%d, want a cache load (true 1/0/0)", ri.Cached, h, m, e)
	}
	mr, err := b2.Match(ctx, MatchRequest{Ruleset: "ids", Input: "a NEEDLE in the haaay"})
	if err != nil || len(mr.Matches) != 2 {
		t.Fatalf("match on the restarted replica: %v %+v", err, mr)
	}
	// Empty-body reload works from the shipped definition too.
	if info, err := b2.Reload(ctx, "ids", nil); err != nil || !info.Cached || info.Version != 2 {
		t.Fatalf("reload on the restarted replica: %+v, %v", info, err)
	}
}

// TestInstallArtifactRejects: an artifact without its definition is a 400
// (it could be neither WAL-logged nor reloaded), and a corrupt shipped
// artifact is a 422 that stores nothing — unlike a corrupt *cached*
// entry, which falls back to compiling
// (TestCompileCacheCorruptEntryFallsBack).
func TestInstallArtifactRejects(t *testing.T) {
	ctx := context.Background()
	s := opFixture(t, Config{})
	cacheDir := t.TempDir()
	if err := s.AttachCache(cacheDir); err != nil {
		t.Fatal(err)
	}
	art, err := s.Artifact("ids")
	if err != nil {
		t.Fatal(err)
	}
	noReq := *art
	noReq.Req = nil
	body, err := json.Marshal(noReq)
	if err != nil {
		t.Fatal(err)
	}
	rec := httpDo(t, s, Route("rulesets.install"), "copy", string(body), "")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "missing req") {
		t.Fatalf("install without req = %d %s, want 400", rec.Code, rec.Body)
	}

	raw, err := base64.StdEncoding.DecodeString(art.ArtifactB64)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 3; i < len(raw)/3+8; i++ {
		raw[i] ^= 0x5a
	}
	corrupt := *art
	corrupt.ArtifactB64 = base64.StdEncoding.EncodeToString(raw)
	if _, err := s.InstallArtifact(ctx, "copy", corrupt); statusOf(err) != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt shipped artifact: err %v, want 422", err)
	}
	if _, err := s.Ruleset("copy"); statusOf(err) != http.StatusNotFound {
		t.Fatalf("rejected installs published something: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*")); len(entries) != 0 {
		t.Fatalf("rejected installs stored %v in the cache", entries)
	}
	if d := s.ReadyDetail().Rulesets; len(d) != 1 || d["ids"] != "ready" {
		t.Fatalf("readiness after rejected installs = %v, want only ids: ready", d)
	}
}

// putTraced sends one PUT and returns the status plus the request's
// completed trace, fetched from /debug/requests by the id the response
// carried — the path an operator takes to explain a slow compile.
func putTraced(t *testing.T, url, path string, body any) (int, *telemetry.ReqReport) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("PUT", url+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var rep telemetry.ReqReport
	if code := doJSON(t, "GET", url+"/debug/requests?id="+resp.Header.Get("X-CA-Trace-Id"), nil, &rep); code != 200 {
		t.Fatalf("GET /debug/requests for PUT %s: status %d", path, code)
	}
	return resp.StatusCode, &rep
}

// TestCompileStagesInRequestTrace: the request that put a rule set into
// a node carries the stages of whatever produced the automaton — the
// compiler's for a compile, the decoder's for a cache hit or a shipped
// artifact — on the request's own clock, beside its wal stage, and the
// per-stage latency histogram gains those labels.
func TestCompileStagesInRequestTrace(t *testing.T) {
	cacheDir := t.TempDir()
	boot := func() (*Server, string) {
		s, ts := testServer(t, Config{})
		if err := s.AttachCache(cacheDir); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AttachWAL(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		return s, ts.URL
	}
	def := CompileRequest{Patterns: []string{"needle", "ha+y"}}
	compiled := []string{"cache.get", "regexc.parse", "regexc.glushkov", "map.components", "map.large", "map.pack", "map.cross", "machine.build", "cache.store", "wal"}
	cachedPut := []string{"cache.get", "caformat.decode", "machine.build", "wal"}
	shipped := []string{"caformat.decode", "machine.build", "cache.store", "wal"}

	check := func(s *Server, what string, code int, rep *telemetry.ReqReport, op string, want []string) {
		t.Helper()
		if code != 200 || rep.Op != op || rep.Ruleset == "" || rep.Outcome != "ok" {
			t.Fatalf("%s: status %d, trace %+v", what, code, rep)
		}
		var got []string
		for _, st := range rep.Stages {
			got = append(got, st.Name)
			if st.StartMS < 0 || st.StartMS+st.DurationMS > rep.DurationMS+1e-3 {
				t.Errorf("%s: stage %+v lies outside its %.3fms request", what, st, rep.DurationMS)
			}
			if n := s.col.StageSeconds.With(st.Name).Count(); n == 0 {
				t.Errorf("%s: ca_server_stage_seconds{stage=%q} observed nothing", what, st.Name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stages %v, want %v", what, got, want)
		}
	}

	s1, url1 := boot()
	code, rep := putTraced(t, url1, "/rulesets/ids", def)
	check(s1, "compile", code, rep, "rulesets.compile", compiled)
	if got := rep.Stage("regexc.parse").Attr("patterns"); got != 2 {
		t.Errorf("adopted regexc.parse patterns = %d, want 2", got)
	}
	if got := rep.Stage("cache.get").Attr("miss"); got != 1 {
		t.Errorf("first node's cache.get miss = %d, want 1", got)
	}
	stored := rep.Stage("cache.store").Attr("bytes")
	if stored <= 0 {
		t.Errorf("cache.store bytes = %d", stored)
	}

	// A second node on the same cache directory: the same PUT is a load.
	s2, url2 := boot()
	code, rep = putTraced(t, url2, "/rulesets/ids", def)
	check(s2, "cached", code, rep, "rulesets.compile", cachedPut)
	if h := s2.col.CacheHits.Value(); h != 1 {
		t.Errorf("second node's cache hits = %d, want 1", h)
	}
	if get := rep.Stage("cache.get"); get.Attr("hit") != 1 || get.Attr("bytes") != stored {
		t.Errorf("second node's cache.get = %+v, want a hit on the %d bytes stored", get, stored)
	}

	// And a shipped artifact is a load too, which this node then stores.
	art, err := s1.Artifact("ids")
	if err != nil {
		t.Fatal(err)
	}
	code, rep = putTraced(t, url2, "/rulesets/copy/artifact", art)
	check(s2, "shipped", code, rep, "rulesets.install", shipped)
	if got := rep.Stage("caformat.decode").Attr("partitions"); got < 1 {
		t.Errorf("adopted caformat.decode partitions = %d", got)
	}
	if got := rep.Stage("cache.store").Attr("bytes"); got != stored {
		t.Errorf("shipped cache.store bytes = %d, want %d", got, stored)
	}
}

// TestCacheKeyCoversEveryCompileField perturbs CompileRequest one field
// at a time: the content address must move every time, or a warm cache
// serves the automaton of a different definition. Reflection makes a
// field added to the request and forgotten in cacheKey fail here.
func TestCacheKeyCoversEveryCompileField(t *testing.T) {
	base := CompileRequest{Format: "regex", Patterns: []string{"ab", "c"}, Text: "t", Design: "perf", MaxRepeat: 7, Seed: 3}
	key := func(r CompileRequest) string { return cacheKey(r.Format, &r).String() }
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		changed := base
		changed.Patterns = append([]string(nil), base.Patterns...)
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Index(0).SetString(f.Index(0).String() + "x")
		default:
			t.Fatalf("CompileRequest.%s has kind %v: teach this test to perturb it", rt.Field(i).Name, f.Kind())
		}
		if key(changed) == key(base) {
			t.Errorf("cacheKey ignores CompileRequest.%s: two definitions would share one cache entry", rt.Field(i).Name)
		}
	}
	// Part boundaries are content too.
	moved := base
	moved.Patterns = []string{"a", "bc"}
	if key(moved) == key(base) {
		t.Error("cacheKey ignores where one pattern ends and the next begins")
	}
	// The name is not part of the address: equal definitions share an
	// entry whatever they are called (cacheKey never sees the name), and
	// the default format is the explicit one.
	implicit := base
	implicit.Format = ""
	if cacheKey("regex", &implicit) != cacheKey("regex", &base) {
		t.Error("equal definitions under two rule-set names must share a key")
	}
}

// TestReadyDetailThroughInstall walks /readyz's per-ruleset detail
// through compile → reload → failed reload → cache load. The detail is
// derived from the table and the installs in progress; a delay injected
// at the machine-build seam holds each install open long enough to read
// the state mid-build.
func TestReadyDetailThroughInstall(t *testing.T) {
	ctx := context.Background()
	s, _ := testServer(t, Config{})
	if err := s.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	state := func() string { return s.ReadyDetail().Rulesets["ids"] }
	// during runs build under the delay and returns the mid-build states
	// seen (consecutive duplicates dropped) and build's error.
	during := func(build func() error) (seen []string, err error) {
		t.Helper()
		faults.Enable(faults.NewInjector(1, map[string]faults.Rule{
			"machine.pool.get": {Rate: 1, Kinds: faults.KindDelay, MaxDelay: 400 * time.Millisecond},
		}))
		defer faults.Disable()
		done := make(chan error, 1)
		go func() { done <- build() }()
		for {
			select {
			case err := <-done:
				return seen, err
			default:
			}
			if st := state(); len(seen) == 0 || seen[len(seen)-1] != st {
				seen = append(seen, st)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	compile := func(pats ...string) func() error {
		return func() error { _, err := s.Compile(ctx, "ids", CompileRequest{Patterns: pats}); return err }
	}
	reload := func(req *CompileRequest) func() error {
		return func() error { _, err := s.Reload(ctx, "ids", req); return err }
	}

	if st := state(); st != "" {
		t.Fatalf("before any compile: %q", st)
	}
	for _, step := range []struct {
		what     string
		build    func() error
		status   int
		mid, end string
	}{
		{"first compile", compile("aaa"), 0, "compiling", "ready"},
		{"reload with a new definition", reload(&CompileRequest{Patterns: []string{"bbb"}}), 0, "reloading", "ready"},
		// These two fail before the machine-build seam, too fast to be caught
		// mid-build; what matters is that the state settles back.
		{"reload that fails to compile", reload(&CompileRequest{Patterns: []string{"(unclosed"}}), http.StatusUnprocessableEntity, "", "ready"},
		{"reload that fails validation", reload(&CompileRequest{Format: "bogus"}), http.StatusBadRequest, "", "ready"},
		{"reload of the stored definition, now a cache hit", reload(nil), 0, "reloading", "cached"},
		{"recompile of a cached definition", compile("aaa"), 0, "reloading", "cached"},
	} {
		seen, err := during(step.build)
		if (err == nil) != (step.status == 0) || (err != nil && statusOf(err) != step.status) {
			t.Fatalf("%s: err %v, want status %d", step.what, err, step.status)
		}
		if mid := strings.Join(seen, ","); !strings.Contains(mid, step.mid) {
			t.Errorf("%s: mid-build states %q never read %q", step.what, mid, step.mid)
		}
		if st := state(); st != step.end {
			t.Errorf("%s: settled state %q, want %q", step.what, st, step.end)
		}
	}
	if err := s.DeleteRuleset(ctx, "ids"); err != nil {
		t.Fatal(err)
	}
	if d := s.ReadyDetail().Rulesets; len(d) != 0 {
		t.Errorf("detail after delete = %v, want none", d)
	}
}
