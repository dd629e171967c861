package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"cacheautomaton/internal/analysis"
)

// TestCallGraphReachability loads a tiny module with a three-deep call
// chain plus a bystander and checks the caller-ward traversal.
func TestCallGraphReachability(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/cg\n\ngo 1.21\n")
	write("chain/chain.go", `package chain

func Leaf() int { return 1 }

func Mid() int { return Leaf() }

func Top() int { return Mid() }

func Bystander() int { return 2 }
`)
	u, err := analysis.Load(analysis.LoadConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cg := u.CallGraph()

	full := func(short string) string {
		for name := range cg.ByName {
			if filepath.Base(name) == short || name == short {
				return name
			}
		}
		// Fall back to suffix match on the function identifier.
		for name := range cg.ByName {
			if len(name) > len(short) && name[len(name)-len(short)-1] == '.' && name[len(name)-len(short):] == short {
				return name
			}
		}
		t.Fatalf("function %s not in callgraph (have %d entries)", short, len(cg.ByName))
		return ""
	}

	up := cg.ReverseReachable([]string{full("Leaf")})
	for _, fn := range []string{"Leaf", "Mid", "Top"} {
		if !up[full(fn)] {
			t.Errorf("ReverseReachable from Leaf misses %s", fn)
		}
	}
	if up[full("Bystander")] {
		t.Error("ReverseReachable from Leaf includes Bystander")
	}
}
