package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one invocation's shape. The command line fills it from
// -seed/-seconds/-out; smoke_test.go fills it with one short round.
type config struct {
	seed int64
	// pass is how long a timed pass measures; it is cut into rounds of
	// length round, as many as fit (a round always finishes the
	// operation in flight, so long operations make fewer rounds).
	pass, round time.Duration
	// probe is the time budget of one layer-matrix probe.
	probe time.Duration
	// clients is C, the closed-loop connection count of the wire
	// workloads and the shard count of the scan workloads.
	clients int
	outDir  string
	// corruptOracle damages every workload's expected-output table after
	// it is built. Only smoke_test.go sets it, to prove a wrong output
	// is counted and fails the run.
	corruptOracle bool
}

// roundsPerPass is how many rounds a pass is cut into. Rounds are short
// (20 ms at 20 s) so that some of them fall wholly inside one of the
// host's quiet spells, which last a few tens to a few hundreds of
// milliseconds; see stat. Only the wire workloads' rounds are of that
// length (a round of the others is one operation), and with what goes on
// between rounds a pass holds about half as many.
const roundsPerPass = 1024

func defaultClients() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	return c
}

// workloadDef is one named set of inputs and the product surface it
// drives. The order here is the order of BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	why  string
	// prepare does the bench's own untimed work — seeded inputs and the
	// expected outputs — and returns the product-facing half.
	prepare func(ctx context.Context, cfg *config) (*prepared, error)
}

// prepared is a workload with its inputs and oracle built.
type prepared struct {
	// setup makes every product call that precedes the first timed
	// operation (compile or load, servers, listeners, pool pre-build,
	// WAL attach). Its wall time is setup_s.
	setup func(ctx context.Context) (instance, error)
	// artifact is the workload's rule set, for compile_s and load_s. It
	// is nil for compile-cold, whose rounds measure exactly that.
	artifact *artifact
}

// instance is a set-up workload, ready to be driven.
type instance interface {
	// round drives the workload for about d (it finishes the operation
	// in flight) and returns what it measured. tr is nil on an
	// untraced round.
	round(ctx context.Context, d time.Duration, tr *tracer) (roundResult, error)
	// close tears down everything setup started and reports the first
	// error; it is called on every exit path.
	close(ctx context.Context) error
}

// roundResult is one round's measurements: end-to-end metric values by
// name, and the operations attempted and failed (errors, non-2xx, shed,
// output mismatches).
type roundResult struct {
	attempted, failed int64
	values            map[string]float64
	// primary is the throughput the trace-overhead ratio compares.
	primary float64
}

var workloads = []workloadDef{
	{
		name:    "scan-sparse",
		why:     "one partition, 21 states, rare matches: the single-partition kernel and the sharding machinery do all the work",
		prepare: prepareScanSparse,
	},
	{
		name:    "scan-dense",
		why:     "Snort-like, 27 partitions, 43 active states: the multi-partition loop and its per-symbol bookkeeping dominate",
		prepare: prepareScanDense,
	},
	{
		name:    "serve-small",
		why:     "1 KiB POST /match over loopback HTTP: transport, admission, lease and JSON are the work, the kernel is a sliver",
		prepare: prepareServeSmall,
	},
	{
		name:    "session-stream",
		why:     "router in front of two WAL-backed nodes, feed/suspend/resume sessions: writes beside reads, checkpoint per feed",
		prepare: prepareSessionStream,
	},
	{
		name:    "compile-cold",
		why:     "2000 rules compiled, saved and loaded back to back: the rule-set path no scan or serve workload touches after set-up",
		prepare: prepareCompileCold,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// workloadReport is one workload's rows of result.json.
type workloadReport struct {
	Name      string          `json:"name"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	FailRatio float64         `json:"fail_ratio"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

func (r *workloadReport) count(res roundResult) {
	r.Attempted += res.attempted
	r.Failed += res.failed
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
}

// closeInstance tears an instance down under its own deadline, so a
// canceled run still stops its servers and removes its directories.
func closeInstance(ctx context.Context, in instance) error {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	return in.close(cctx)
}

// setUp runs the workload's set-up once and returns the instance and the
// set-up time in seconds.
func setUp(ctx context.Context, p *prepared) (instance, float64, error) {
	t0 := time.Now()
	in, err := p.setup(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return in, time.Since(t0).Seconds(), nil
}

// sideSampler times something other than the rounds — one more set-up,
// one more compile and load of the rule set — between rounds, spread over
// the whole pass so that no one spell of host noise decides it, and never
// for more than share of the pass so far.
//
// A turn starts from a collected heap and parks the collector while it
// runs: whether a collection falls beside a 30 µs compile moves it by a
// quarter, and what the turn allocates (16 KB per compile of the small
// rule set, 40 MB for scan-dense's) is collected when the collector is
// let go again. It then calls op back to back, timing every call on its
// own, until turnCap or its share is used up — at least once — and keeps
// the fastest call as the turn's sample. The metric is the fastest turn:
// the same quiet value as everything else (see stat), over thousands of
// calls of the small rule set, of which some fall in a quiet moment of
// the host whatever the minute is like. (The median over turns of a
// turn's mean call reads 20–40 % apart over ten runs in a row when the
// host changes speed between them; the fastest call 5–15 %.)
type sideSampler struct {
	name  string // the metric sampled
	share float64
	// op makes one call and says how long the timed part of it took.
	op    func(ctx context.Context) (time.Duration, error)
	spent time.Duration
	// turns is the fastest call of each turn, in seconds.
	turns []float64
}

// turnCap bounds a turn, and with it what the parked collector lets pile
// up, whenever one call is shorter than that. turnMin is the least budget
// a turn is taken for: the collection it starts with and the two
// stop-the-worlds of parking cost a third of a millisecond.
const (
	turnCap = 5 * time.Millisecond
	turnMin = time.Millisecond
)

func (s *sideSampler) offer(ctx context.Context, elapsed time.Duration) error {
	budget := time.Duration(s.share*float64(elapsed)) - s.spent
	if budget < turnMin && len(s.turns) > 0 {
		return nil
	}
	if budget > turnCap {
		budget = turnCap
	}
	t0 := time.Now()
	defer func() { s.spent += time.Since(t0) }()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var best time.Duration
	for n := 0; n == 0 || time.Since(t0) < budget; n++ {
		d, err := s.op(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if n == 0 || d < best {
			best = d
		}
	}
	s.turns = append(s.turns, best.Seconds())
	return nil
}

// heapMB is the live heap after two collections (two, so that
// sync.Pool victims and finalised objects are gone too).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// untracedPass is the end-to-end measurement: set-up, a discarded
// warm-up of an eighth of the pass, then cfg.pass of rounds with further
// set-ups and artifact round trips sampled between them. Every
// end-to-end metric is taken over its samples as stat describes.
func untracedPass(ctx context.Context, cfg *config, p *prepared, rep *workloadReport) (err error) {
	in, first, err := setUp(ctx, p)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeInstance(ctx, in); cerr != nil && err == nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	samples := map[string][]float64{}
	// The side samplers' shares: a set-up or a compile of scan-dense's
	// rule set is 40–80 ms, so a tenth of a 20 s pass is the thirty-odd
	// calls its fastest is taken over; a load is a fiftieth of that.
	sides := []*sideSampler{{name: "setup_s", share: 0.10, turns: []float64{first}, op: func(ctx context.Context) (time.Duration, error) {
		extra, s, err := setUp(ctx, p)
		if err != nil {
			return 0, err
		}
		return time.Duration(s * float64(time.Second)), closeInstance(ctx, extra)
	}}}
	if art := p.artifact; art != nil {
		sides = append(sides, &sideSampler{name: "compile_s", share: 0.12, op: func(context.Context) (time.Duration, error) {
			t0 := time.Now()
			_, err := art.compile()
			return time.Since(t0), err
		}}, &sideSampler{name: "load_s", share: 0.05, op: func(context.Context) (time.Duration, error) {
			t0 := time.Now()
			_, err := art.load()
			return time.Since(t0), err
		}})
	}
	// Eight live-heap readings are spaced over the pass: two full
	// collections per round would be the workload.
	nextHeap := cfg.pass / 8
	warmUp := time.Now()
	var start time.Time // of the measured part; zero during the warm-up
	for start.IsZero() || time.Since(start) < cfg.pass {
		res, err := in.round(ctx, cfg.round, nil)
		if err != nil {
			return err
		}
		rep.count(res)
		if start.IsZero() { // warm-up: its failures count, its timings do not
			if time.Since(warmUp) >= cfg.pass/8 {
				start = time.Now()
			}
			continue
		}
		for k, v := range res.values {
			samples[k] = append(samples[k], v)
		}
		if time.Since(start) >= nextHeap {
			samples["heap_mb"] = append(samples["heap_mb"], heapMB())
			nextHeap += cfg.pass / 8
		}
		for _, s := range sides {
			if _, inRounds := res.values[s.name]; inRounds {
				continue // compile-cold's rounds are its set-up, compile and load
			}
			if err := s.offer(ctx, time.Since(start)); err != nil {
				return err
			}
		}
	}
	for _, s := range sides {
		if _, inRounds := samples[s.name]; !inRounds {
			samples[s.name] = s.turns
		}
	}
	rep.EndToEnd = make(map[string]stat, len(endToEnd))
	for _, m := range endToEnd {
		s, ok := samples[m.name]
		if !ok {
			return fmt.Errorf("no samples of %s", m.name)
		}
		rep.EndToEnd[m.name] = newStat(&m, s)
	}
	for k := range samples {
		if findMetric(endToEnd, k) == nil {
			return fmt.Errorf("undeclared metric %s", k)
		}
	}
	return nil
}

// tracedPass runs the workload with the bench's span recorder on: after
// a warm-up, untraced and traced rounds alternate for a quarter of a
// pass, so the trace-overhead ratio compares like with like whether or
// not an untraced pass ran in this process.
func tracedPass(ctx context.Context, cfg *config, w *workloadDef, p *prepared, rep *workloadReport) (err error) {
	in, _, err := setUp(ctx, p)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeInstance(ctx, in); cerr != nil && err == nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	tr := newTracer()
	var plain, traced []float64
	start := time.Now()
	for r := 0; len(traced) == 0 || time.Since(start) < cfg.pass/4+cfg.pass/8; r++ {
		var t *tracer
		if r%2 == 1 {
			t = tr
		}
		res, err := in.round(ctx, cfg.round, t)
		if err != nil {
			return err
		}
		rep.count(res)
		switch {
		case time.Since(start) < cfg.pass/8: // warm-up
		case t == nil:
			plain = append(plain, res.primary)
		default:
			traced = append(traced, res.primary)
		}
	}
	if _, err := tr.write(cfg.outDir, w.name); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	ratio := 0.0
	if q := quiet(plain, true); q > 0 {
		ratio = quiet(traced, true) / q
	}
	rep.PerLayer = map[string]stat{
		"bench.trace_overhead_ratio": constStat("ratio", ratio),
		"bench.fail_ratio":           constStat("ratio", rep.FailRatio),
	}
	return nil
}

// runWorkload runs the requested passes of one workload.
func runWorkload(ctx context.Context, cfg *config, w *workloadDef, untraced, traced bool) (*workloadReport, error) {
	rep := &workloadReport{Name: w.name}
	p, err := w.prepare(ctx, cfg)
	if err != nil {
		return rep, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	if untraced {
		if err := untracedPass(ctx, cfg, p, rep); err != nil {
			return rep, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if traced {
		if err := tracedPass(ctx, cfg, w, p, rep); err != nil {
			return rep, fmt.Errorf("%s: traced: %w", w.name, err)
		}
	}
	return rep, nil
}

// printStats writes one line per metric in table order:
// workload metric value unit n=<samples> spread=<iqr/median>.
func printStats(w io.Writer, workload string, table []metric, stats map[string]stat) {
	for _, m := range table {
		s, ok := stats[m.name]
		if !ok {
			continue
		}
		printRow(w, workload, m.name, s.Value, s.Unit, int64(s.N), s.spread())
	}
}

func printRow(w io.Writer, workload, name string, value float64, unit string, n int64, spread float64) {
	fmt.Fprintf(w, "%-15s %-36s %14.6g %-8s n=%-3d spread=%.4f\n", workload, name, value, unit, n, spread)
}

// scratchDir makes a directory for WALs, caches and the like under the
// out directory, so the bench writes nowhere outside its checkout.
func scratchDir(cfg *config, pattern string) (string, error) {
	return os.MkdirTemp(cfg.outDir, pattern)
}
