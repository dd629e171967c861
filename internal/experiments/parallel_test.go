package experiments

import (
	"bytes"
	"sync"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

// benchSubset keeps the concurrency tests fast.
var benchSubset = []string{"Snort", "Bro217", "Dotstar"}

// TestPrefetchAllMatchesSequential renders a table from a prefetched
// (parallel) runner and a plain sequential runner: output must be
// byte-identical, proving the worker pool changes wall-clock only.
func TestPrefetchAllMatchesSequential(t *testing.T) {
	cfg := Config{Scale: 0.05, InputBytes: 8192, Seed: 1, Benchmarks: benchSubset}
	par := NewRunner(cfg)
	par.PrefetchAll(4)
	seq := NewRunner(cfg)

	var parBuf, seqBuf bytes.Buffer
	if err := par.Table1().Render(&parBuf); err != nil {
		t.Fatal(err)
	}
	if err := seq.Table1().Render(&seqBuf); err != nil {
		t.Fatal(err)
	}
	if parBuf.String() != seqBuf.String() {
		t.Fatalf("parallel-prefetched table differs from sequential:\n%s\nvs\n%s",
			parBuf.String(), seqBuf.String())
	}
}

// TestConcurrentGetsSingleFlight hammers Get for the same key from many
// goroutines: all callers must observe the same *Run (one execution), and
// the race detector must stay quiet.
func TestConcurrentGetsSingleFlight(t *testing.T) {
	r := NewRunner(Config{Scale: 0.05, InputBytes: 4096, Seed: 1})
	spec := workload.ByName("Snort")
	if spec == nil {
		t.Fatal("Snort workload missing")
	}
	runs := make([]*Run, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = r.Get(spec, arch.PerfOpt)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			t.Fatalf("goroutine %d got a different *Run: executions were not single-flighted", i)
		}
	}
}

// TestPrefetchAllWithTraceSink checks the sink is called once per
// (benchmark, design) pair without interleaving (the sink itself need not
// be goroutine-safe; the runner serializes calls).
func TestPrefetchAllWithTraceSink(t *testing.T) {
	var names []string
	cfg := Config{Scale: 0.05, InputBytes: 4096, Seed: 1, Benchmarks: benchSubset,
		TraceSink: func(r *telemetry.ReqReport) {
			names = append(names, r.Op)
		}}
	NewRunner(cfg).PrefetchAll(4)
	if want := 2 * len(benchSubset); len(names) != want {
		t.Fatalf("trace sink called %d times, want %d (%v)", len(names), want, names)
	}
}
