// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–5). Each experiment function returns a renderable Table;
// the cmd/cabench tool prints them, and bench_test.go wraps them as Go
// benchmarks. Where the paper reports measured silicon numbers, the
// harness reports the analytical-model values (Tables 2–4, Fig. 10); where
// the paper reports workload-dependent numbers (Table 1, Figs. 7–9,
// Table 5), the harness builds the synthetic benchmark, compiles and maps
// it for both designs, simulates the input stream, and derives the values
// from the measured activity.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Scale multiplies benchmark pattern counts (1.0 = paper-sized NFAs).
	Scale float64
	// InputBytes is the simulated stream length (the paper uses 10 MB
	// traces; the trends are stable from ~1 MB down to tens of KB).
	InputBytes int
	// Seed drives all generators deterministically.
	Seed int64
	// Benchmarks restricts the set (nil = all 20).
	Benchmarks []string
	// Observer, when non-nil, receives run telemetry from every simulated
	// machine (cabench -metrics-addr feeds a telemetry.MachineCollector).
	Observer machine.Observer
	// TraceSink, when non-nil, receives the compile-pipeline stage
	// breakdown of each (benchmark, design) mapping as it completes; the
	// report's Op names the pair ("Snort/CA_P").
	TraceSink func(r *telemetry.ReqReport)
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

func (c Config) inputBytes() int {
	if c.InputBytes <= 0 {
		return 1 << 20
	}
	return c.InputBytes
}

func (c Config) benchmarks() []*workload.Spec {
	if len(c.Benchmarks) == 0 {
		return workload.All()
	}
	var out []*workload.Spec
	for _, name := range c.Benchmarks {
		if s := workload.ByName(name); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Run is the full pipeline product for one (benchmark, design) pair.
type Run struct {
	Name   string
	Design arch.DesignKind
	// Err is set when the benchmark could not be mapped/simulated; other
	// fields are then partial.
	Err error
	// NFA statistics after design-specific optimization (CA_S = merged).
	Stats nfa.Stats
	// MergeLevel records how much merging the CA_S back-off ladder kept.
	MergeLevel mapper.OptimizeLevel
	// Mapping statistics.
	Mapping mapper.Stats
	// Activity from simulating the input stream.
	Activity machine.ActivityStats
	// MatchCount on the simulated stream.
	MatchCount int64
	// EnergyPJPerSymbol and PowerW from the arch model.
	EnergyPJPerSymbol float64
	PowerW            float64
	// HostSimTime is how long the functional simulation took on the host
	// (diagnostic only; modeled throughput is deterministic).
	HostSimTime time.Duration
}

// Runner executes and caches pipeline runs. It is safe for concurrent
// use: concurrent Gets for the same (benchmark, design) pair share one
// execution, and PrefetchAll warms the whole cache over a worker pool.
// When running concurrently, Config.Observer must itself be safe for
// concurrent use (telemetry.MachineCollector is).
type Runner struct {
	Cfg Config

	mu    sync.Mutex
	cache map[string]*cacheEntry
	// traceMu serializes TraceSink calls so concurrent pipelines do not
	// interleave their compile reports.
	traceMu sync.Mutex
}

// cacheEntry single-flights one (benchmark, design) execution.
type cacheEntry struct {
	once sync.Once
	run  *Run
}

// NewRunner returns a Runner for the config.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, cache: make(map[string]*cacheEntry)}
}

// Get runs (or returns the cached) pipeline for one benchmark and design.
func (r *Runner) Get(spec *workload.Spec, kind arch.DesignKind) *Run {
	key := spec.Name + "/" + kind.String()
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		e = &cacheEntry{}
		r.cache[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.run = r.execute(spec, kind) })
	return e.run
}

// PrefetchAll executes every configured (benchmark, design) pipeline over
// a pool of workers, so subsequent table and figure generation is pure
// cache reads. workers < 1 uses GOMAXPROCS.
func (r *Runner) PrefetchAll(workers int) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		spec *workload.Spec
		kind arch.DesignKind
	}
	var jobs []job
	for _, spec := range r.Cfg.benchmarks() {
		for _, kind := range []arch.DesignKind{arch.PerfOpt, arch.SpaceOpt} {
			jobs = append(jobs, job{spec, kind})
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				r.Get(j.spec, j.kind)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

func (r *Runner) execute(spec *workload.Spec, kind arch.DesignKind) *Run {
	run := &Run{Name: spec.Name, Design: kind}
	n, err := spec.Build(r.Cfg.Seed, r.Cfg.scale())
	if err != nil {
		run.Err = err
		return run
	}
	design := arch.NewDesign(kind)
	var tr *telemetry.ReqTrace
	if r.Cfg.TraceSink != nil {
		tr = telemetry.NewReqTrace(spec.Name + "/" + kind.String())
	}
	pl, level, err := mapper.MapOptimized(n, mapper.Config{
		Design:         design,
		Seed:           r.Cfg.Seed,
		AllowChainedG4: kind == arch.SpaceOpt,
		Trace:          tr,
	})
	if r.Cfg.TraceSink != nil {
		r.traceMu.Lock()
		r.Cfg.TraceSink(tr.Done(err))
		r.traceMu.Unlock()
	}
	if err != nil {
		run.Err = fmt.Errorf("map: %w", err)
		return run
	}
	run.MergeLevel = level
	run.Stats = pl.NFA.ComputeStats()
	run.Mapping = pl.ComputeStats()
	m, err := machine.New(pl, machine.Options{})
	if err != nil {
		run.Err = fmt.Errorf("machine: %w", err)
		return run
	}
	m.Observer = r.Cfg.Observer
	input := spec.Input(r.Cfg.Seed, r.Cfg.inputBytes())
	start := time.Now()
	res, err := m.RunContext(context.Background(), input)
	if err != nil {
		run.Err = fmt.Errorf("run: %w", err)
		return run
	}
	run.HostSimTime = time.Since(start)
	run.Activity = res.Activity
	run.MatchCount = res.MatchCount
	act := res.Activity.AvgActivity()
	run.EnergyPJPerSymbol = design.SymbolEnergyPJ(act)
	run.PowerW = design.PowerW(act)
	return run
}

// Table is a renderable experiment result.
type Table struct {
	// Title identifies the paper artifact ("Table 3", "Figure 7", …).
	Title string
	// Note explains the comparison basis / caveats.
	Note    string
	Headers []string
	Rows    [][]string
}

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) error {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	if t.Note != "" {
		sb.WriteString(t.Note + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

func errCell(err error) string {
	msg := err.Error()
	if len(msg) > 40 {
		msg = msg[:37] + "..."
	}
	return "ERR:" + msg
}
