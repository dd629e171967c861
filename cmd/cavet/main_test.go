package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seededModule is a synthetic module carrying one instance of each bug
// class cavet exists to catch, marked with // SEED:<analyzer> comments.
// The test derives each expected finding position from its marker, so
// the fixtures can be edited without recounting lines.
var seededModule = map[string]string{
	"go.mod": "module example.com/seeded\n\ngo 1.21\n",

	"machine/machine.go": `package machine

import "context"

type Machine struct{}

func (m *Machine) Run(in []byte) {}

func (m *Machine) RunContext(ctx context.Context, in []byte) error {
	m.Run(in)
	return ctx.Err()
}

type Pool struct{}

func (p *Pool) GetContext(ctx context.Context) (*Machine, error) { return &Machine{}, nil }
func (p *Pool) Put(m *Machine)                                   {}
`,

	// The PR 3 deadlock: session.mu acquired while Server.mu is held.
	"server/server.go": `package server

import "sync"

type Server struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

type session struct {
	mu sync.Mutex
}

func (s *Server) Broadcast() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.mu.Lock() // SEED:lockorder
		sess.mu.Unlock()
	}
}
`,

	"server/serve.go": `package server

import (
	"context"

	"example.com/seeded/machine"
)

func (s *Server) Match(ctx context.Context, p *machine.Pool, in []byte) error {
	m, err := p.GetContext(ctx)
	if err != nil {
		return err
	}
	defer p.Put(m)
	m.Run(in) // SEED:ctxpropagate
	return nil
}

type wal struct{}

func (w *wal) Append(rec []byte) error { return nil }

func (s *Server) snapshot(w *wal) {
	w.Append(nil) // SEED:errdrop
}
`,

	// A fire-and-forget goroutine.
	"server/background.go": `package server

func leak() {
	for {
	}
}

func (s *Server) background() {
	go leak() // SEED:goroutinelife
}
`,

	// A loop-wrapped feed RPC and an egress call with no faults seam.
	"cluster/feed.go": `package cluster

type Router struct{}

func (r *Router) nodeFeed(node string) (int, error) { return 0, nil }

func (r *Router) Feed(nodes []string) {
	for range nodes {
		_, _ = r.nodeFeed("n") // SEED:singleattempt
	}
}
`,

	"cluster/rpc.go": `package cluster

import "net/http"

func (r *Router) probe(c *http.Client, url string) error {
	resp, err := c.Get(url) // SEED:seamcover
	if err != nil {
		return err
	}
	return resp.Body.Close()
}
`,
}

// markerLine returns the 1-based line of the marker in src.
func markerLine(t *testing.T, src, marker string) int {
	t.Helper()
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found", marker)
	return 0
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestSeededBugsAreCaught(t *testing.T) {
	dir := writeModule(t, seededModule)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}

	expected := []struct {
		file, marker, analyzer string
	}{
		{"server/server.go", "SEED:lockorder", "lockorder"},
		{"server/serve.go", "SEED:ctxpropagate", "ctxpropagate"},
		{"server/serve.go", "SEED:errdrop", "errdrop"},
		{"server/background.go", "SEED:goroutinelife", "goroutinelife"},
		{"cluster/feed.go", "SEED:singleattempt", "singleattempt"},
		{"cluster/rpc.go", "SEED:seamcover", "seamcover"},
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, want := range expected {
		line := markerLine(t, seededModule[want.file], "// "+want.marker)
		prefix := fmt.Sprintf("%s:%d:", want.file, line)
		found := false
		for _, out := range lines {
			if strings.HasPrefix(out, prefix) && strings.Contains(out, ": "+want.analyzer+": ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding at %s\noutput:\n%s", want.analyzer, prefix, &stdout)
		}
	}
	if len(lines) != len(expected) {
		t.Errorf("got %d findings, want %d:\n%s", len(lines), len(expected), &stdout)
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/clean\n\ngo 1.21\n",
		"ok.go":  "package clean\n\nfunc OK() int { return 1 }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("clean module produced output:\n%s", &stdout)
	}
}

func TestSuppressedSeedIsSilent(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/quiet\n\ngo 1.21\n",
		"w.go": `package quiet

type wal struct{}

func (w *wal) Append(rec []byte) error { return nil }

func snapshot(w *wal) {
	//cavet:ignore errdrop exercising the suppression path end to end
	w.Append(nil)
}
`,
	}
	dir := writeModule(t, files)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s", code, &stdout)
	}
}

func TestMissingReasonIsAFinding(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/noreason\n\ngo 1.21\n",
		"w.go": `package noreason

type wal struct{}

func (w *wal) Append(rec []byte) error { return nil }

func snapshot(w *wal) {
	//cavet:ignore errdrop
	w.Append(nil)
}
`,
	}
	dir := writeModule(t, files)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, &stdout)
	}
	if !strings.Contains(stdout.String(), "cavet: malformed suppression") {
		t.Errorf("missing-reason directive not reported:\n%s", &stdout)
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	names := []string{
		"lockorder", "ctxpropagate", "errdrop", "atomicmix", "metricname",
		"goroutinelife", "singleattempt", "seamcover",
	}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, &stdout)
		}
	}
	if n := strings.Count(stdout.String(), "\n"); n != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", n, len(names), &stdout)
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code := run([]string{"-C", t.TempDir(), "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("no go.mod: exit = %d, want 2", code)
	}
	if code := run([]string{"a", "b"}, &stdout, &stderr); code != 2 {
		t.Errorf("extra args: exit = %d, want 2", code)
	}
	for _, format := range []string{"xml", "json"} { // json was dropped: nothing consumed it
		if code := run([]string{"-format", format, "./..."}, &stdout, &stderr); code != 2 {
			t.Errorf("unknown format %s: exit = %d, want 2", format, code)
		}
	}
}

func TestStaleSuppressionIsAFinding(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/stale\n\ngo 1.21\n",
		"w.go": `package stale

func OK() int {
	//cavet:ignore errdrop nothing on the next line actually drops an error
	return 1
}
`,
	}
	dir := writeModule(t, files)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, &stdout)
	}
	if !strings.Contains(stdout.String(), "stale suppression") {
		t.Errorf("stale directive not reported:\n%s", &stdout)
	}
}

// TestFormatSARIF checks the emitted log against the structural
// requirements of the SARIF 2.1.0 schema: the version/$schema pair, the
// runs/tool/driver spine, rule declarations, and for every result a
// ruleId, level, message.text, and a physicalLocation whose startLine
// is at least 1.
func TestFormatSARIF(t *testing.T) {
	dir := writeModule(t, seededModule)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-format", "sarif", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, &stdout)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "cavet" {
		t.Errorf("driver name = %q, want cavet", run0.Tool.Driver.Name)
	}
	rules := map[string]bool{}
	for _, r := range run0.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	if len(run0.Results) == 0 {
		t.Fatal("no results in SARIF output")
	}
	for _, res := range run0.Results {
		if !rules[res.RuleID] {
			t.Errorf("result ruleId %q has no matching rule declaration", res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result level = %q, want error", res.Level)
		}
		if res.Message.Text == "" {
			t.Error("result with empty message.text")
		}
		if len(res.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" {
			t.Error("result with empty artifactLocation.uri")
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("startLine = %d, want >= 1", loc.Region.StartLine)
		}
	}
}

func TestFormatGitHub(t *testing.T) {
	dir := writeModule(t, seededModule)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-format", "github", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "::error file=") {
		t.Errorf("github format missing ::error command:\n%s", out)
	}
	if !strings.Contains(out, "title=cavet/lockorder") {
		t.Errorf("github format missing analyzer title:\n%s", out)
	}
}
