package suite_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"cacheautomaton/internal/analysis"
	"cacheautomaton/internal/analysis/suite"
)

// TestRepoIsCavetClean is the gate the whole PR hangs on: the repo at
// HEAD, tests included, produces zero findings from the full
// eight-analyzer suite. Any change that introduces a lock inversion, a
// broken context chain, a dropped durability error, mixed atomics, a
// bad metric name, an unowned goroutine, a retried feed RPC, or an
// unfaultable egress path fails this test — and therefore the ordinary
// `go test ./...` run, not just the separate cavet CI step. It also
// enforces the CI time budget: load plus the full parallel run must
// finish well inside the workflow's 90-second cavet step.
func TestRepoIsCavetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module including stdlib; skipped in -short")
	}
	root := moduleRoot(t)
	start := time.Now()
	u, err := analysis.Load(analysis.LoadConfig{Dir: root, IncludeTests: true})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	findings := analysis.Run(u, suite.All())
	elapsed := time.Since(start)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if elapsed > 90*time.Second {
		t.Errorf("full-suite load+run took %v, over the 90s CI budget", elapsed)
	}
	t.Logf("full suite: %d analyzers over the module in %v", len(suite.All()), elapsed)
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
