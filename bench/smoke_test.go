package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the ledger at its smallest: one 200 ms round per pass.
func smokeConfig(t *testing.T) *config {
	return &config{
		seed:    1,
		pass:    200 * time.Millisecond,
		round:   200 * time.Millisecond,
		probe:   10 * time.Millisecond,
		clients: defaultClients(),
		outDir:  t.TempDir(),
	}
}

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and harness.go the same declaration.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, bench %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the bench %d", kind, len(got), len(want))
		}
		for i, d := range got {
			m := want[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, bench %+v", kind, i, d, m)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != m.bound):
				t.Errorf("%s: bound of %s differs from the bench's %v", kind, d.Name, m.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, d.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// sameKeys fails unless stats holds exactly the declared metrics, each
// with its declared unit.
func sameKeys(t *testing.T, what string, stats map[string]stat, table []metric, skip map[string]bool) {
	t.Helper()
	for _, m := range table {
		if skip[m.name] {
			continue
		}
		s, ok := stats[m.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", what, m.name)
		case s.Unit != m.unit:
			t.Errorf("%s: %s emitted in %q, declared %q", what, m.name, s.Unit, m.unit)
		}
	}
	for k := range stats {
		if findMetric(table, k) == nil || skip[k] {
			t.Errorf("%s: undeclared metric %s", what, k)
		}
	}
}

// TestLedgerSmoke runs every workload for one short round, untraced and
// traced, then the layer matrix: every declared metric must come out
// with its declared unit and no other, every output check must pass,
// and every trace file's self times must add up to its root spans.
func TestLedgerSmoke(t *testing.T) {
	t.Parallel() // with TestCorruptOracleFailsRun: the timings are not the point here
	cfg := smokeConfig(t)
	led, err := runLedger(context.Background(), cfg, workloadNames(), true, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if exitCode(led, io.Discard) != 0 {
		t.Errorf("exit code %d on a clean run", exitCode(led, io.Discard))
	}
	layersOnly := map[string]bool{}
	for _, m := range perLayer {
		if !perWorkloadLayers[m.name] {
			layersOnly[m.name] = true
		}
	}
	for _, w := range led.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, w.Failed, w.Attempted)
		}
		sameKeys(t, w.Name, w.EndToEnd, endToEnd, nil)
		sameKeys(t, w.Name+" traced", w.PerLayer, perLayer, layersOnly)
		for _, m := range endToEnd {
			if w.EndToEnd[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.name, w.EndToEnd[m.name].Value)
			}
		}

		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Summary traceSummary `json:"summary"`
			Spans   []span       `json:"spans"`
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		if tf.Summary.Roots == 0 || len(tf.Spans) == 0 {
			t.Errorf("%s: empty trace", w.Name)
		}
		if c := tf.Summary.Cover; c < 0.95 || c > 1.05 {
			t.Errorf("%s: self times are %.3f of the root spans, want within 5%%", w.Name, c)
		}
	}
	if led.LayerFailed != 0 {
		t.Errorf("layers: %d of %d checks failed", led.LayerFailed, led.LayerAttempted)
	}
	sameKeys(t, "layers", led.Layers, perLayer, perWorkloadLayers)

	// The driver's line: every end-to-end metric untraced, every
	// per-layer metric traced.
	one := *led
	one.Workloads = led.Workloads[:1]
	if got := one.resultLine(false).Metrics; len(got) != len(endToEnd) {
		t.Errorf("untraced result line has %d metrics, want %d", len(got), len(endToEnd))
	}
	if got := one.resultLine(true).Metrics; len(got) != len(perLayer) {
		t.Errorf("traced result line has %d metrics, want %d", len(got), len(perLayer))
	}
}

// TestCorruptOracleFailsRun damages every workload's expected-output
// table: each must then count failures, and the command must exit
// non-zero.
func TestCorruptOracleFailsRun(t *testing.T) {
	t.Parallel()
	cfg := smokeConfig(t)
	cfg.corruptOracle = true
	led, err := runLedger(context.Background(), cfg, workloadNames(), true, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range led.Workloads {
		if w.Failed == 0 || w.FailRatio <= 0 {
			t.Errorf("%s: corrupted oracle went unnoticed (%d of %d failed)", w.Name, w.Failed, w.Attempted)
		}
	}
	if exitCode(led, io.Discard) == 0 {
		t.Error("exit code 0 with failed output checks")
	}
}

func TestVerdict(t *testing.T) {
	lower := &metric{name: "lat", better: "lower", bound: 0.10}
	higher := &metric{name: "rate", better: "higher", bound: 0.10, floor: 1}
	tight := func(v float64) stat { return stat{Value: v, Lo: v * 0.995, Hi: v * 1.005} }
	wide := func(v float64) stat { return stat{Value: v, Lo: v * 0.8, Hi: v * 1.2} }
	for _, tc := range []struct {
		name string
		m    *metric
		a, b stat
		want string
	}{
		{"within bound", lower, tight(100), tight(105), same},
		{"slower", lower, tight(100), tight(120), worse},
		{"faster", lower, tight(100), tight(80), better},
		{"rate down", higher, tight(100), tight(80), worse},
		{"rate up", higher, tight(100), tight(120), better},
		{"under the floor", higher, tight(2), tight(1.2), same},
		{"noisy and overlapping", lower, wide(100), wide(120), unresolved},
		{"noisy but disjoint", lower, wide(100), wide(200), worse},
		{"noisy, disjoint, higher is better", higher, wide(100), wide(200), better},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareExitCode writes two ledgers that differ in one simulated
// quantity: -compare must refuse them however small the difference.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cycles float64) string {
		l := ledger{Layers: map[string]stat{"machine.sim_cycles": constStat("count", cycles)}}
		path := filepath.Join(dir, name)
		if err := l.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 16384), write("b.json", 16384), write("c.json", 16385)
	if code := compareFiles(a, b, io.Discard, io.Discard); code != 0 {
		t.Errorf("identical ledgers: exit %d", code)
	}
	if code := compareFiles(a, c, io.Discard, io.Discard); code != 1 {
		t.Errorf("different machine.sim_cycles: exit %d, want 1", code)
	}
}

func TestQuietValue(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	if got := quiet(samples, false); got != 1 {
		t.Errorf("quiet(lower is better) = %v, want 1", got)
	}
	if got := quiet(samples, true); got != 100 {
		t.Errorf("quiet(higher is better) = %v, want 100", got)
	}
	// The split halves: the even-numbered samples are 100, 98, … 2.
	s := newStat(&metric{unit: "us", better: "lower"}, samples)
	if s.Value != 1 || s.Lo != 1 || s.Hi != 2 {
		t.Errorf("newStat = %v [%v, %v], want 1 [1, 2]", s.Value, s.Lo, s.Hi)
	}
}
