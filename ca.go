// Package cacheautomaton is a software reproduction of the Cache Automaton
// (Subramaniyan et al., MICRO-50 2017): an in-cache accelerator for
// Non-deterministic Finite Automata. It bundles a regex/ANML front-end, the
// paper's compiler (connected-component packing + METIS-style k-way
// partitioning under switch-connectivity budgets), a cycle-level functional
// simulator of the mapped LLC design, and the calibrated timing/energy/area
// model of the hardware.
//
// Quick start:
//
//	a, err := cacheautomaton.CompileRegex([]string{"cat", "dog.*food"}, cacheautomaton.Options{})
//	if err != nil { ... }
//	matches, stats, err := a.RunContext(ctx, []byte("the cat ate dog food"))
//
// Every match reports the rule index and the input offset of its last
// symbol. Stats carries the modeled hardware metrics: cache footprint,
// operating frequency, energy per symbol, and average power for the
// simulated stream.
package cacheautomaton

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/rulefmt"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

// Design selects which of the paper's two design points to target.
type Design int

const (
	// Performance is CA_P: 2 GHz, one connected component per partition,
	// within-way connectivity (paper §3.1).
	Performance Design = iota
	// Space is CA_S: 1.2 GHz, prefix/suffix-merged NFA, cross-way
	// G-switches; ~40% less cache at 60% of the throughput.
	Space
)

func (d Design) String() string {
	if d == Performance {
		return "CA_P"
	}
	return "CA_S"
}

// ParseDesign reads a design by its command-line name: "perf" is CA_P
// and "space" is CA_S.
func ParseDesign(name string) (Design, error) {
	switch name {
	case "perf":
		return Performance, nil
	case "space":
		return Space, nil
	}
	return Performance, fmt.Errorf("unknown design %q (want perf or space)", name)
}

func (d Design) kind() arch.DesignKind {
	if d == Performance {
		return arch.PerfOpt
	}
	return arch.SpaceOpt
}

// Options configure compilation and mapping.
type Options struct {
	// Design picks CA_P (default) or CA_S.
	Design Design
	// CaseInsensitive folds ASCII case in regex patterns.
	CaseInsensitive bool
	// DotExcludesNewline makes '.' skip '\n' in regex patterns.
	DotExcludesNewline bool
	// MaxRepeat caps {m,n} counted repetitions (default 256).
	MaxRepeat int
	// Seed makes the graph partitioner deterministic (default 0).
	Seed int64
	// RunObserver, when non-nil, receives one summary per run from every
	// machine this automaton leases (runs, batches, sharded runs, counts
	// and stream feeds). Nothing is reported from inside the symbol loops.
	// Because an Automaton may be used from many goroutines (each leasing
	// its own machine), ObserveRun must be safe for concurrent use;
	// telemetry.MachineCollector is (all its instruments are atomic).
	RunObserver RunObserver
}

// RunSummary is what a run reports to a RunObserver: symbols, host
// seconds, matches, output-buffer events and the activity sums the energy
// model averages — the numbers of the Stats the run returned, before
// modeling.
type RunSummary = telemetry.RunSummary

// RunObserver is the run-telemetry hook. internal/telemetry's
// MachineCollector (as used by carun's -metrics-addr flag and by cad)
// satisfies it.
type RunObserver interface {
	// ObserveRun reports one completed run: a one-shot or sharded run, one
	// input of a batch, one feed of a stream, or one Count.
	ObserveRun(RunSummary)
}

// Match is one report event.
type Match struct {
	// Offset is the input offset of the symbol completing the match.
	Offset int64 `json:"offset"`
	// Pattern is the rule index (the regex's position in the compiled
	// set, or the ANML reportcode).
	Pattern int `json:"pattern"`
}

// Stats summarizes a run with the paper's metrics.
type Stats struct {
	// Cycles is the number of symbols processed (one per cycle).
	Cycles int64
	// Matches is the total report count.
	Matches int64
	// AvgActiveStates is the mean dynamically-active state count
	// (Table 1's activity metric).
	AvgActiveStates float64
	// EnergyPJPerSymbol and AvgPowerW come from the calibrated energy
	// model and the measured per-cycle activity (Fig. 9).
	EnergyPJPerSymbol float64
	AvgPowerW         float64
	// ModeledSeconds is the time the hardware would take: cycles at the
	// design's operating frequency.
	ModeledSeconds float64
}

// Automaton is a compiled, mapped, executable Cache Automaton.
//
// Concurrency contract: an Automaton is safe for concurrent use by
// multiple goroutines. The compiled artifacts (design, NFA, placement)
// are immutable after compilation; every execution entry point leases a
// private simulator machine from an internal pool for the duration of the
// call, so concurrent RunContext/RunParallelContext/LeaseContext/
// StreamContext/Count callers never share mutable machine state. Streams
// and Leases are themselves single-owner: one Stream or Lease must not be
// used from two goroutines at once, but any number of them may run side by
// side.
type Automaton struct {
	design    *arch.Design
	nfa       *nfa.NFA
	placement *mapper.Placement
	report    *CompileReport
	// pool leases every machine the automaton runs on: one for a run, a
	// lease, a stream or a count, N for a sharded run.
	pool *machine.Pool
	// sigNames carries auxiliary per-report-code names (today: ClamAV
	// signature names indexed by Match.Pattern) so Save/Load round-trips
	// everything a server needs to re-serve the rule set.
	sigNames []string
}

// newCompileTrace opens the trace of one compile entry point. Tests
// replace it to finish and read the trace an error return drops.
var newCompileTrace = telemetry.NewReqTrace

// CompileRegex compiles a rule set (one pattern per entry; matches report
// the pattern index) and maps it onto the selected design.
func CompileRegex(patterns []string, opts Options) (*Automaton, error) {
	tr := newCompileTrace("compile-regex")
	n, err := regexc.CompileSet(patterns, regexc.Options{
		CaseInsensitive:    opts.CaseInsensitive,
		DotExcludesNewline: opts.DotExcludesNewline,
		MaxRepeat:          opts.MaxRepeat,
		Trace:              tr,
	})
	if err != nil {
		return nil, err
	}
	return fromNFA(n, opts, tr)
}

// CompileANML reads an ANML automata network (the Automata Processor's
// XML interchange format) and maps it.
func CompileANML(r io.Reader, opts Options) (*Automaton, error) {
	tr := newCompileTrace("compile-anml")
	sp := tr.StartStage("anml.read")
	cr := &countingReader{r: r}
	net, err := anml.Read(cr)
	sp.SetAttr("bytes", cr.n)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("states", int64(net.NFA.NumStates()))
	sp.End()
	return fromNFA(net.NFA, opts, tr)
}

// countingReader counts the bytes read through it for the anml.read span,
// and passes on r's length so the reader can still size its buffer once.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Len() int {
	if l, ok := c.r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

func fromNFA(n *nfa.NFA, opts Options, tr *telemetry.ReqTrace) (*Automaton, error) {
	design := arch.NewDesign(opts.Design.kind())
	cfg := mapper.Config{
		Design:         design,
		Seed:           opts.Seed,
		AllowChainedG4: opts.Design == Space,
		Trace:          tr,
	}
	// CA_S state-merges with the compiler's back-off ladder; CA_P maps
	// the NFA as it is.
	pl, _, err := mapper.MapOptimized(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	return newAutomaton(pl, opts, tr)
}

// newAutomaton builds the executable wrapper (machine pool, report)
// around a verified placement — the shared tail of every compile path and
// of Load.
func newAutomaton(pl *mapper.Placement, opts Options, tr *telemetry.ReqTrace) (*Automaton, error) {
	sb := tr.StartStage("machine.build")
	pool := machine.NewPool(pl, machine.Options{CollectMatches: true}, 0)
	pool.Observer = opts.RunObserver
	// Build (and pool) one machine eagerly so placement problems surface at
	// compile time, not on the first run. The compile entry points'
	// signatures carry no ctx, and there is no request to attribute this
	// checkout to.
	m, err := pool.GetContext(context.TODO())
	if err != nil {
		sb.End()
		return nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	sb.SetAttr("partitions", int64(pl.NumPartitions()))
	sb.SetAttr("classes", int64(m.NumClasses()))
	pool.Put(m)
	sb.End()
	return &Automaton{
		design:    pl.Design,
		nfa:       pl.NFA,
		placement: pl,
		report:    tr.Done(nil),
		pool:      pool,
	}, nil
}

// Save serializes the compiled automaton (placement plus auxiliary
// signature names) in the caformat container. Load(Save(a)) serves
// bit-identical match sets: state IDs, report codes and partition layout
// are preserved exactly. The encoding is deterministic, which is what
// makes the content-addressed compile cache stable. The artifact is built
// in one buffer of its exact size and reaches w in a single Write, so w
// needs no buffering of its own.
func (a *Automaton) Save(w io.Writer) error {
	return caformat.Encode(w, a.placement, a.sigNames)
}

// Load reconstructs an automaton from a caformat container written by
// Save. The artifact is self-describing: the design (CA_P/CA_S) and
// placement come from the file, so opts.Design and the compile-shaping
// options are ignored — only runtime options (RunObserver) apply.
// Corrupted input returns a structured error, never a panic.
func Load(r io.Reader, opts Options) (*Automaton, error) {
	tr := newCompileTrace("load-caformat")
	sp := tr.StartStage("caformat.decode")
	pl, names, err := caformat.Decode(r)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	sp.SetAttr("states", int64(pl.NFA.NumStates()))
	sp.SetAttr("partitions", int64(pl.NumPartitions()))
	sp.End()
	a, err := newAutomaton(pl, opts, tr)
	if err != nil {
		return nil, err
	}
	a.sigNames = names
	return a, nil
}

// SignatureNames returns the auxiliary per-report-code names the
// automaton was compiled with (ClamAV signature names), or nil. The
// returned slice must not be mutated.
func (a *Automaton) SignatureNames() []string { return a.sigNames }

// CompileReport is the stage breakdown of the compilation (or Load) that
// produced an Automaton — regex parse, Glushkov construction, component
// packing, k-way splitting with retries, budget repair, the CA_S back-off
// ladder, machine construction — in the flight recorder's report type,
// the one a served request gets: Op is the entry point ("compile-regex"),
// Stages the phases in start order ("regexc.parse", "map.large",
// "machine.build", …) with their counters as attributes.
type CompileReport = telemetry.ReqReport

// CompileReport returns the stage breakdown recorded while this automaton
// was compiled. It is always available; recording costs a few small
// allocations per compile. The report is shared: do not modify it.
func (a *Automaton) CompileReport() *CompileReport { return a.report }

// statsFrom converts a machine result into the paper's modeled metrics.
func (a *Automaton) statsFrom(res *machine.Result) *Stats {
	act := res.Activity.AvgActivity()
	freqGHz := a.design.OperatingFrequencyGHz(arch.TimingOptions{})
	return &Stats{
		Cycles:            res.Activity.Cycles,
		Matches:           res.MatchCount,
		AvgActiveStates:   res.Activity.AvgActiveStates(),
		EnergyPJPerSymbol: a.design.SymbolEnergyPJ(act),
		AvgPowerW:         a.design.PowerW(act),
		ModeledSeconds:    float64(res.Activity.Cycles) / (freqGHz * 1e9),
	}
}

// matchesFrom converts machine report events to the exported form.
func matchesFrom(ms []machine.Match) []Match {
	matches := make([]Match, len(ms))
	for i, m := range ms {
		matches[i] = Match{Offset: m.Offset, Pattern: int(m.Code)}
	}
	return matches
}

// RunContext processes input from offset 0 and returns the matches with
// the modeled hardware statistics. Each call leases a private machine, so
// it is safe to call from any number of goroutines concurrently. The scan
// is deadline-aware (see Lease.RunContext); a ctx that can never be
// canceled costs nothing. When ctx carries a telemetry.ReqTrace, the
// machine checkout and the scan are recorded as "lease" and "run" stage
// spans.
func (a *Automaton) RunContext(ctx context.Context, input []byte) ([]Match, *Stats, error) {
	l, err := a.LeaseContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer l.Release()
	return l.RunContext(ctx, input)
}

// LeaseContext checks a private machine out of the automaton's pool for
// repeated one-shot runs without per-call pool traffic (a server handling
// a burst of requests on one connection, for example). The lease is
// single-owner: use it from one goroutine, and Release it when done — an
// unreleased lease is not an error, but its machine is garbage instead of
// being recycled. Any number of leases may be live at once. A
// telemetry.ReqTrace carried by ctx records the checkout as a "lease"
// stage span.
func (a *Automaton) LeaseContext(ctx context.Context) (*Lease, error) {
	m, err := a.pool.GetContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	return &Lease{a: a, m: m}, nil
}

// Lease is an exclusively-held executable instance of an Automaton: the
// per-session machine checkout behind RunContext and the serving layer.
type Lease struct {
	a *Automaton
	m *machine.Machine
}

// RunContext resets the leased machine, processes input from offset 0,
// and returns the matches with the modeled hardware statistics. The scan
// checks ctx between machine.ContextCheckBytes sub-batches, so a canceled
// or timed-out request stops within one sub-batch instead of scanning its
// whole input. On cancellation the partial result is discarded and ctx's
// error is returned (the run is one-shot; nothing is lost).
func (l *Lease) RunContext(ctx context.Context, input []byte) ([]Match, *Stats, error) {
	if l.m == nil {
		return nil, nil, fmt.Errorf("cacheautomaton: use of released lease")
	}
	sp := telemetry.ReqTraceFrom(ctx).StartStage("run")
	sp.SetAttr("bytes", int64(len(input)))
	defer sp.End()
	l.m.Reset()
	res, err := l.m.RunContext(ctx, input)
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttr("matches", res.MatchCount)
	return matchesFrom(res.Matches), l.a.statsFrom(res), nil
}

// BatchItem is one input's outcome from Lease.RunBatch. Err is set only
// when that input alone failed (a panic recovered inside its stream);
// the other items are unaffected.
type BatchItem struct {
	Matches []Match
	Stats   *Stats
	Err     error
}

// RunBatch scans every input independently from offset 0 through the
// leased machine, one after another, returning one item per input in
// order. Match sets, offsets, and statistics are those of running each
// input with RunContext on its own lease; what the batch shares is the
// lease (see machine.RunBatch). Inputs are strings so serving paths avoid
// a per-request byte-slice copy up front; the scan only reads them. A
// canceled ctx abandons the whole batch and returns its error.
func (l *Lease) RunBatch(ctx context.Context, inputs []string) ([]BatchItem, error) {
	if l.m == nil {
		return nil, fmt.Errorf("cacheautomaton: use of released lease")
	}
	sp := telemetry.ReqTraceFrom(ctx).StartStage("run")
	var total int64
	for _, in := range inputs {
		total += int64(len(in))
	}
	sp.SetAttr("bytes", total)
	sp.SetAttr("streams", int64(len(inputs)))
	defer sp.End()
	rs, err := l.m.RunBatch(ctx, inputs)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(rs))
	var matches int64
	for i := range rs {
		if rs[i].Err != nil {
			items[i] = BatchItem{Err: rs[i].Err}
			continue
		}
		items[i] = BatchItem{
			Matches: matchesFrom(rs[i].Matches),
			Stats:   l.a.statsFrom(&rs[i].Result),
		}
		matches += rs[i].MatchCount
	}
	sp.SetAttr("matches", matches)
	return items, nil
}

// Release returns the leased machine to the automaton's pool. Release is
// idempotent; the lease is unusable afterwards.
func (l *Lease) Release() {
	if l.m != nil {
		l.a.pool.Put(l.m)
		l.m = nil
	}
}

// RunParallelContext scans input from offset 0 with up to shards
// replicated machines running concurrently — the software analogue of the
// paper's §3.4 input-stream replication across C-BOXes, with the stream
// divided into contiguous shards instead of duplicated. Matches and
// statistics are bit-identical to RunContext (shards speculate their start
// state and a repair pass re-runs any shard whose speculation missed; see
// machine.RunShardedContext). shards < 1 uses GOMAXPROCS; shards == 1, or
// an input too short to be worth sharding, is one sequential scan.
//
// The shard machines are leased per call, so concurrent (and mixed
// RunContext/RunParallelContext) callers are safe. Every shard worker
// checks ctx at sub-batch granularity, so canceling the request stops all
// shards promptly and returns their machines to the pool. A worker panic
// is recovered inside the sharded engine and surfaces here as an error,
// never as a process crash.
func (a *Automaton) RunParallelContext(ctx context.Context, input []byte, shards int) ([]Match, *Stats, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	ms, err := a.pool.GetNContext(ctx, machine.ShardsFor(shards, len(input)))
	if err != nil {
		return nil, nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	defer a.pool.PutAll(ms)
	sp := telemetry.ReqTraceFrom(ctx).StartStage("run")
	sp.SetAttr("bytes", int64(len(input)))
	sp.SetAttr("shards", int64(len(ms)))
	defer sp.End()
	res, err := machine.RunShardedContext(ctx, ms, input)
	if err != nil {
		return nil, nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	sp.SetAttr("matches", res.MatchCount)
	return matchesFrom(res.Matches), a.statsFrom(res), nil
}

// LeaseStats is the checkout accounting of the automaton's one machine
// pool. A healthy process keeps Gets == Puts whenever no run, stream or
// lease is in flight; the chaos harness asserts exactly that after every
// fault drill.
type LeaseStats = machine.PoolStats

// LeaseStats snapshots the pool's checkout accounting.
func (a *Automaton) LeaseStats() LeaseStats { return a.pool.Stats() }

// Count processes input without retaining match records (for long
// streams), returning only statistics. It leases a machine like any other
// run and scans the whole input once with collection off (see
// machine.Machine.CountContext), so memory stays O(1) in the match count
// and concurrent Count calls run side by side. On cancellation the
// partial statistics are discarded and ctx's error is returned.
func (a *Automaton) Count(ctx context.Context, input []byte) (*Stats, error) {
	m, err := a.pool.GetContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("cacheautomaton: %w", err)
	}
	defer a.pool.Put(m)
	res, err := m.CountContext(ctx, input)
	if err != nil {
		return nil, err
	}
	return a.statsFrom(res), nil
}

// States returns the mapped NFA's state count (after CA_S merging).
func (a *Automaton) States() int { return a.nfa.NumStates() }

// Partitions returns how many 256-STE partitions the mapping uses.
func (a *Automaton) Partitions() int { return a.placement.NumPartitions() }

// CacheUsageMB returns the LLC footprint (8 KB per partition, Fig. 8).
func (a *Automaton) CacheUsageMB() float64 { return a.placement.UtilizationMB() }

// FrequencyGHz returns the design's operating frequency (Table 3).
func (a *Automaton) FrequencyGHz() float64 {
	return a.design.OperatingFrequencyGHz(arch.TimingOptions{})
}

// ThroughputGbps returns the deterministic line rate: 8 bits per cycle.
func (a *Automaton) ThroughputGbps() float64 {
	return a.design.ThroughputGbps(arch.TimingOptions{})
}

// WriteANML exports the mapped NFA as an ANML document.
func (a *Automaton) WriteANML(w io.Writer, networkID string) error {
	return anml.Write(w, a.nfa, networkID, nil)
}

// WriteDOT exports the mapped NFA in Graphviz DOT form.
func (a *Automaton) WriteDOT(w io.Writer, name string) error {
	return a.nfa.WriteDOT(w, name)
}

// CompileFuzzy builds an automaton that reports every position where a
// substring within edit distance maxDist of one of the patterns ends
// (insertions, deletions and substitutions all count 1). This is the
// Levenshtein workload of the paper's Table 1, exposed as a library
// feature; matches report the pattern index.
func CompileFuzzy(patterns []string, maxDist int, opts Options) (*Automaton, error) {
	tr := newCompileTrace("compile-fuzzy")
	sp := tr.StartStage("fuzzy.build")
	defer sp.End() // first End wins: the error returns below still close it
	parts := make([]*nfa.NFA, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 || maxDist < 0 || maxDist >= len(p) {
			return nil, fmt.Errorf("cacheautomaton: pattern %d: need 0 ≤ maxDist < len(pattern)", i)
		}
		parts[i] = workload.LevenshteinNFA(p, maxDist, int32(i))
	}
	n := nfa.New()
	n.Union(parts...)
	if err := n.Validate(); err != nil {
		return nil, err
	}
	sp.SetAttr("patterns", int64(len(patterns)))
	sp.SetAttr("states", int64(n.NumStates()))
	sp.End()
	return fromNFA(n, opts, tr)
}

// Stream is a stateful scanner over a continuous input: feed chunks as
// they arrive, and suspend/resume across process lifetimes by serializing
// the architectural state (the paper's §2.9 suspend model: "recording the
// number of input symbols processed and the active state vector to
// memory").
//
// A Stream is a Lease by another name — one machine out of the automaton's
// pool — that keeps the machine's position between calls; Close returns
// it for recycling. Streams are single-owner (one goroutine at a time),
// but any number of Streams on one Automaton may run concurrently.
type Stream Lease

// StreamContext opens an independent scanner positioned at offset 0. A
// telemetry.ReqTrace carried by ctx records the machine checkout as a
// "lease" stage span.
func (a *Automaton) StreamContext(ctx context.Context) (*Stream, error) {
	l, err := a.LeaseContext(ctx)
	return (*Stream)(l), err
}

// FeedContext consumes the next chunk and returns the matches it produced
// (offsets are absolute within the whole stream). Delivered matches are
// drained from the underlying machine, so a long-lived stream retains only
// the matches of the chunk in flight, not every match ever seen. The chunk
// is scanned in machine.ContextCheckBytes sub-batches with a ctx check
// between each. On cancellation it returns the matches produced so far
// together with ctx's error; Pos() then reports exactly how much of the
// chunk was consumed, so the caller can resume from the cut point without
// losing or duplicating matches. Feeding a closed stream is an error.
func (s *Stream) FeedContext(ctx context.Context, chunk []byte) ([]Match, error) {
	if s.m == nil {
		return nil, fmt.Errorf("cacheautomaton: feed of closed stream")
	}
	sp := telemetry.ReqTraceFrom(ctx).StartStage("run")
	sp.SetAttr("bytes", int64(len(chunk)))
	defer sp.End()
	_, err := s.m.RunContext(ctx, chunk)
	out := matchesFrom(s.m.DrainMatches())
	sp.SetAttr("matches", int64(len(out)))
	return out, err
}

// Pos returns the absolute offset of the next symbol (0 after Close).
func (s *Stream) Pos() int64 {
	if s.m == nil {
		return 0
	}
	return s.m.Pos()
}

// Suspend serializes the stream's architectural state. The stream remains
// usable; a session-migration handoff is Suspend followed by Close.
func (s *Stream) Suspend(w io.Writer) error {
	if s.m == nil {
		return fmt.Errorf("cacheautomaton: suspend of closed stream")
	}
	_, err := s.m.Snapshot().WriteTo(w)
	return err
}

// Close returns the stream's machine to the automaton's pool. Close is
// idempotent; the stream is unusable afterwards.
func (s *Stream) Close() { (*Lease)(s).Release() }

// ResumeStreamContext reopens a stream from a Suspend-serialized state.
// The automaton must be the same one (same rules, design and seed). The
// machine checkout becomes a "lease" stage span on the trace carried by
// ctx.
func (a *Automaton) ResumeStreamContext(ctx context.Context, r io.Reader) (*Stream, error) {
	snap, err := machine.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	s, err := a.StreamContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.m.Restore(snap); err != nil {
		s.Close() // return the leased machine; otherwise the checkout leaks
		return nil, err
	}
	return s, nil
}

// PeakPowerHintW is the compiler's coarse peak-power scheduling hint for
// this mapping (§2.9).
func (a *Automaton) PeakPowerHintW() float64 { return a.placement.PeakPowerHintW() }

// ConfigurationTimeMS models the one-time cost of loading STE pages and
// programming switches for this mapping (§2.10; ≈0.2 ms for the paper's
// largest benchmark, vs tens of ms on the AP).
func (a *Automaton) ConfigurationTimeMS() float64 {
	return arch.ConfigurationTimeMS(a.placement.NumPartitions())
}

// ReplicationFactor returns how many independent copies of this automaton
// fit in cacheBudgetMB — the §5.2 space-to-throughput conversion ("these
// space savings can be directly translated to speedup by matching against
// multiple NFA instances").
func (a *Automaton) ReplicationFactor(cacheBudgetMB float64) int {
	u := a.CacheUsageMB()
	if u <= 0 {
		return 0
	}
	return int(cacheBudgetMB / u)
}

// CompileSnortRules compiles a Snort-style rule file (content/pcre/nocase/
// sid options) into an automaton whose matches report each rule's sid as
// the Pattern field.
func CompileSnortRules(text string, opts Options) (*Automaton, error) {
	tr := newCompileTrace("compile-snort")
	sp := tr.StartStage("snort.parse+compile")
	defer sp.End() // first End wins: the error returns below still close it
	rules, err := rulefmt.ParseSnortRules(text)
	if err != nil {
		return nil, err
	}
	n, err := rulefmt.CompileSnort(rules)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rules", int64(len(rules)))
	sp.SetAttr("states", int64(n.NumStates()))
	sp.End()
	return fromNFA(n, opts, tr)
}

// CompileClamAVDatabase compiles a ClamAV-style hex-signature database
// (one "Name:hexsig" per line; ?? wildcards and {n} skips supported).
// Matches report the signature's index into the returned name list.
func CompileClamAVDatabase(text string, opts Options) (*Automaton, []string, error) {
	tr := newCompileTrace("compile-clamav")
	sp := tr.StartStage("clamav.parse+compile")
	n, names, err := rulefmt.CompileClamAV(text)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.SetAttr("signatures", int64(len(names)))
	sp.SetAttr("states", int64(n.NumStates()))
	sp.End()
	a, err := fromNFA(n, opts, tr)
	if err != nil {
		return nil, nil, err
	}
	a.sigNames = names
	return a, names, nil
}
