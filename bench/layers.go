package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/baseline"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/partition"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

// The layer matrix: every layer timed in isolation through its public
// functions, on the inputs of the workload whose end-to-end metric it
// should move (README.md has the map). It runs once per traced
// invocation, after the workloads, and does not depend on which of
// them ran.

// layerRun accumulates the matrix's rows and its own output checks.
type layerRun struct {
	cfg               *config
	out               map[string]stat
	attempted, failed int64
}

func (l *layerRun) metric(name string) *metric {
	m := findMetric(perLayer, name)
	if m == nil {
		panic("bench: undeclared per-layer metric " + name) // a bug in this file, not an input
	}
	return m
}

func (l *layerRun) set(name string, samples []float64) {
	l.out[name] = newStat(l.metric(name), samples)
}

func (l *layerRun) count(name string, v float64) {
	l.out[name] = constStat(l.metric(name).unit, v)
}

// fast is the quiet value of a set of timings (lower is better).
func fast(samples []float64) float64 { return quiet(samples, false) }

func (l *layerRun) check(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

// timeEach calls fn back to back for the probe budget (at least three
// times, at most maxSamples) and returns each call's duration divided
// by per, in unit.
func (l *layerRun) timeEach(per float64, unit time.Duration, fn func() error) ([]float64, error) {
	const maxSamples = 4096
	var samples []float64
	for start := time.Now(); len(samples) < 3 || (time.Since(start) < l.cfg.probe && len(samples) < maxSamples); {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(unit)/per)
	}
	return samples, nil
}

// timePairs alternates a and b for twice the probe budget and returns
// their per-call times, pair by pair. A self time is a small difference
// of two large times; taking the two a moment apart keeps the host's
// speed the same in both.
func (l *layerRun) timePairs(per float64, unit time.Duration, a, b func() error) (as, bs []float64, err error) {
	const maxSamples = 4096
	timeOne := func(fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0)) / float64(unit) / per, err
	}
	for start := time.Now(); len(as) < 3 || (time.Since(start) < 2*l.cfg.probe && len(as) < maxSamples); {
		ta, err := timeOne(a)
		if err != nil {
			return nil, nil, err
		}
		tb, err := timeOne(b)
		if err != nil {
			return nil, nil, err
		}
		as, bs = append(as, ta), append(bs, tb)
	}
	return as, bs, nil
}

// quietDiff is a−b over the quietest pairs: the twentieth of the pairs
// with the smallest a+b, and of those the median difference.
func quietDiff(as, bs []float64) float64 {
	idx := make([]int, len(as))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return as[idx[i]]+bs[idx[i]] < as[idx[j]]+bs[idx[j]] })
	idx = idx[:len(idx)/20+1]
	diffs := make([]float64, len(idx))
	for i, k := range idx {
		diffs[i] = as[k] - bs[k]
	}
	return median(diffs)
}

// timed is timeEach straight into a row.
func (l *layerRun) timed(name string, per float64, unit time.Duration, fn func() error) error {
	s, err := l.timeEach(per, unit, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.set(name, s)
	return nil
}

// allocsPer reports heap allocations and bytes per call of fn.
func allocsPer(n int, fn func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

func runLayers(ctx context.Context, cfg *config) (map[string]stat, int64, int64, error) {
	l := &layerRun{cfg: cfg, out: map[string]stat{}}
	for _, group := range []func(context.Context) error{
		l.compilePipeline, l.kernelSparse, l.kernelActivity, l.facade, l.baselines,
		l.serving, l.sessions, l.clusterHop,
	} {
		if err := group(ctx); err != nil {
			return l.out, l.attempted, l.failed, err
		}
	}
	for _, m := range perLayer {
		if _, ok := l.out[m.name]; !ok && !perWorkloadLayers[m.name] {
			return l.out, l.attempted, l.failed, fmt.Errorf("no value of %s", m.name)
		}
	}
	return l.out, l.attempted, l.failed, nil
}

// compilePipeline times the rule-set path stage by stage on
// compile-cold's rule set: regexc → nfa → partition → mapper → caformat
// → machine build. The stages should add up to about compile_s.
func (l *layerRun) compilePipeline(ctx context.Context) error {
	rules, _ := coldRules(rand.New(rand.NewSource(l.cfg.seed)), coldRuleCount)

	var parsed []*regexc.Parsed
	if err := l.timed("regexc.parse_s", 1, time.Second, func() error {
		parsed = parsed[:0]
		for _, r := range rules {
			p, err := regexc.Parse(r, regexc.Options{})
			if err != nil {
				return err
			}
			parsed = append(parsed, p)
		}
		return nil
	}); err != nil {
		return err
	}
	var n *nfa.NFA
	if err := l.timed("regexc.glushkov_s", 1, time.Second, func() error {
		n = nfa.New()
		for i, p := range parsed {
			one, err := regexc.CompileParsed(p, int32(i))
			if err != nil {
				return err
			}
			n.Union(one)
		}
		return n.Validate()
	}); err != nil {
		return err
	}
	l.count("regexc.states", float64(n.NumStates()))

	var comps []nfa.Component
	if err := l.timed("nfa.components_s", 1, time.Second, func() error {
		comps, _ = n.ConnectedComponents()
		return nil
	}); err != nil {
		return err
	}
	l.count("nfa.components", float64(len(comps)))

	if err := l.kway(); err != nil {
		return err
	}

	perf := mapper.Config{Design: arch.NewDesign(arch.PerfOpt)}
	var pl *mapper.Placement
	if err := l.timed("mapper.map_s", 1, time.Second, func() (err error) {
		pl, err = mapper.Map(n, perf)
		return err
	}); err != nil {
		return err
	}
	l.count("mapper.partitions", float64(pl.NumPartitions()))
	l.count("mapper.cross_edges", float64(len(pl.Cross)))
	// The CA_S back-off ladder merges states before it maps and costs
	// twenty times a plain Map, so it gets the first quarter of the rules.
	quarter, err := regexc.CompileSet(rules[:coldRuleCount/4], regexc.Options{})
	if err != nil {
		return err
	}
	space := mapper.Config{Design: arch.NewDesign(arch.SpaceOpt), AllowChainedG4: true}
	if err := l.timed("mapper.map_optimized_s", 1, time.Second, func() error {
		_, _, err := mapper.MapOptimized(quarter, space)
		return err
	}); err != nil {
		return err
	}

	var art bytes.Buffer
	if err := l.timed("caformat.encode_s", 1, time.Second, func() error {
		art.Reset()
		return caformat.Encode(&art, pl, nil)
	}); err != nil {
		return err
	}
	l.count("caformat.artifact_bytes", float64(art.Len()))
	if err := l.timed("caformat.decode_s", 1, time.Second, func() error {
		_, _, err := caformat.Decode(bytes.NewReader(art.Bytes()))
		return err
	}); err != nil {
		return err
	}
	dir, err := scratchDir(l.cfg, "cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := caformat.NewCache(dir)
	if err != nil {
		return err
	}
	key := caformat.NewKey("bench", "compile-cold")
	if err := l.timed("caformat.cache_put_s", 1, time.Second, func() error { return cache.Put(key, art.Bytes()) }); err != nil {
		return err
	}
	if err := l.timed("caformat.cache_get_s", 1, time.Second, func() error {
		data, err := cache.Get(key)
		l.check(err == nil && bytes.Equal(data, art.Bytes()))
		return err
	}); err != nil {
		return err
	}

	opts := machine.Options{CollectMatches: true}
	if err := l.timed("machine.new_s", 1, time.Second, func() error {
		_, err := machine.New(pl, opts)
		return err
	}); err != nil {
		return err
	}
	pool := machine.NewPool(pl, opts, 0)
	const gets = 1000
	if err := l.timed("machine.pool_get_ns", gets, time.Nanosecond, func() error {
		for i := 0; i < gets; i++ {
			m, err := pool.GetContext(ctx)
			if err != nil {
				return err
			}
			pool.Put(m)
		}
		return nil
	}); err != nil {
		return err
	}
	l.count("machine.pool_builds", float64(pool.Stats().Built))

	return l.serverCompile(ctx, rules)
}

// kway splits the largest connected component of the paper-sized ClamAV
// set, the one shape in the workload registry that exceeds a 256-state
// partition and so must be cut.
func (l *layerRun) kway() error {
	n, err := workload.ByName("ClamAV").Build(registrySeed, 1)
	if err != nil {
		return err
	}
	comps, _ := n.ConnectedComponents()
	largest := comps[0]
	for _, c := range comps {
		if c.Size() > largest.Size() {
			largest = c
		}
	}
	sub, _ := n.Subgraph(largest.States)
	gb := partition.NewBuilder(sub.NumStates())
	for u := range sub.States {
		for _, v := range sub.States[u].Out {
			gb.AddEdge(int32(u), int32(v), 1)
		}
	}
	g := gb.Build()
	k := arch.CeilDiv(sub.NumStates(), arch.PartitionSTEs*9/10)
	var part []int32
	if err := l.timed("partition.kway_s", 1, time.Second, func() (err error) {
		part, err = partition.KWay(g, k, partition.Options{Seed: l.cfg.seed})
		return err
	}); err != nil {
		return err
	}
	l.check(partition.Validate(g, part, k) == nil)
	l.count("partition.edge_cut", float64(partition.Cut(g, part)))
	return nil
}

// machineFor places n and builds one collecting machine on it.
func machineFor(n *nfa.NFA) (*machine.Machine, *mapper.Placement, error) {
	pl, err := mapNFA(n)
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.New(pl, machine.Options{CollectMatches: true})
	return m, pl, err
}

// kernelSparse times the single-partition kernel shapes on scan-sparse's
// rule set: the plain run, the lane-packed batch, the sharded run and
// its efficiency.
func (l *layerRun) kernelSparse(ctx context.Context) error {
	n, err := regexc.CompileSet(sparseRules, regexc.Options{})
	if err != nil {
		return err
	}
	m, pl, err := machineFor(n)
	if err != nil {
		return err
	}
	buf := sparseBuffer(rand.New(rand.NewSource(l.cfg.seed)), sparseBytes)
	slice := buf[:64<<10]
	run := func() error {
		m.Reset()
		_, err := m.RunContext(ctx, slice)
		return err
	}
	if err := l.timed("machine.run1_ns_per_byte", float64(len(slice)), time.Nanosecond, run); err != nil {
		return err
	}
	allocs, bytesPer, err := allocsPer(64, run)
	if err != nil {
		return err
	}
	l.count("machine.allocs_per_run", allocs)
	l.count("machine.alloc_bytes_per_run", bytesPer)

	lanes := make([]string, 4)
	for i := range lanes {
		lanes[i] = string(buf[i<<10 : (i+1)<<10])
	}
	if err := l.timed("machine.lanes_ns_per_byte", 4<<10, time.Nanosecond, func() error {
		_, err := m.RunBatch(ctx, lanes)
		return err
	}); err != nil {
		return err
	}

	shards := l.cfg.clients
	ms := []*machine.Machine{m}
	for len(ms) < shards {
		extra, err := machine.New(pl, machine.Options{CollectMatches: true})
		if err != nil {
			return err
		}
		ms = append(ms, extra)
	}
	serial, err := l.timeEach(float64(len(buf)), time.Nanosecond, func() error {
		m.Reset()
		_, err := m.RunContext(ctx, buf)
		return err
	})
	if err != nil {
		return err
	}
	sharded, err := l.timeEach(float64(len(buf)), time.Nanosecond, func() error {
		_, err := machine.RunShardedContext(ctx, ms, buf)
		return err
	})
	if err != nil {
		return err
	}
	l.set("machine.sharded_ns_per_byte", sharded)
	// Useful work ÷ attempted work: 1 when every shard's speculative
	// warm-up hits and the cores are free, lower when the repair pass
	// re-runs shards or the shards contend.
	l.count("machine.shard_efficiency", fast(serial)/(float64(shards)*fast(sharded)))
	return nil
}

// activityLevels are the multi-partition kernel's three operating
// points, by average active states.
var activityLevels = []struct {
	suffix, spec string
	scale        float64
}{
	{"low", "Dotstar09", 0.25},
	{"med", "Snort", 0.1},
	{"high", "Fermi", 0.1},
}

const activityBytes = 16 << 10

// kernelActivity times the multi-partition kernel at low, medium and
// high activity, the interleaved batch, and records the simulated
// quantities of the medium point, which no host-side change may move.
func (l *layerRun) kernelActivity(ctx context.Context) error {
	for _, lv := range activityLevels {
		spec := workload.ByName(lv.spec)
		n, err := spec.Build(registrySeed, lv.scale)
		if err != nil {
			return err
		}
		m, _, err := machineFor(n)
		if err != nil {
			return err
		}
		in := registryInput(spec, l.cfg.seed, activityBytes)
		var last *machine.Result
		if err := l.timed("machine.runN_ns_per_byte."+lv.suffix, float64(len(in)), time.Nanosecond, func() (err error) {
			m.Reset()
			last, err = m.RunContext(ctx, in)
			return err
		}); err != nil {
			return err
		}
		switch lv.suffix {
		case "low":
			streams := make([]string, 4)
			for i := range streams {
				streams[i] = string(in[i<<10 : (i+1)<<10])
			}
			if err := l.timed("machine.interleaved_ns_per_byte", 4<<10, time.Nanosecond, func() error {
				_, err := m.RunBatch(ctx, streams)
				return err
			}); err != nil {
				return err
			}
		case "med":
			if err := l.simulated(ctx, n, in, last); err != nil {
				return err
			}
			eng := baseline.NewNFAEngine(n)
			if err := l.timed("baseline.nfa_ns_per_byte.dense", float64(len(in)), time.Nanosecond, func() error {
				eng.Reset()
				_, total := eng.Run(in, false)
				l.check(total > 0)
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// simulated records the modelled machine's quantities for n over in,
// from the bare machine's activity and the facade's Stats of the same
// run. They are properties of the simulated hardware, not of the host.
func (l *layerRun) simulated(ctx context.Context, n *nfa.NFA, in []byte, res *machine.Result) error {
	var text bytes.Buffer
	if err := anml.Write(&text, n, "sim", nil); err != nil {
		return err
	}
	a, err := ca.CompileANML(&text, ca.Options{})
	if err != nil {
		return err
	}
	_, st, err := a.RunContext(ctx, in)
	if err != nil {
		return err
	}
	l.check(st.Cycles == res.Activity.Cycles && st.Matches == res.MatchCount)
	l.count("machine.sim_cycles", float64(st.Cycles))
	l.count("machine.sim_matches", float64(st.Matches))
	l.count("machine.sim_active_states_avg", st.AvgActiveStates)
	l.count("machine.sim_active_partitions_avg", res.Activity.AvgActivePartitions())
	l.count("machine.sim_energy_pj_per_sym", st.EnergyPJPerSymbol)
	return nil
}

// facade times what the root package adds around the machine on the
// serving rule set and a request-sized input: the lease, the run's own
// share, and the stream operations a session is made of.
func (l *layerRun) facade(ctx context.Context) error {
	a, err := ca.CompileRegex(smallRules, ca.Options{})
	if err != nil {
		return err
	}
	n, err := regexc.CompileSet(smallRules, regexc.Options{})
	if err != nil {
		return err
	}
	m, _, err := machineFor(n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(l.cfg.seed))
	payload := []byte(smallPayload(rng, smallPayloadSize))
	chunk := []byte(smallPayload(rng, feedBytes))

	const batch = 200
	leases, err := l.timeEach(batch, time.Nanosecond, func() error {
		for i := 0; i < batch; i++ {
			ls, err := a.LeaseContext(ctx)
			if err != nil {
				return err
			}
			ls.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("ca.lease_ns", leases)
	whole, bare, err := l.timePairs(batch, time.Nanosecond, func() error {
		for i := 0; i < batch; i++ {
			if _, _, err := a.RunContext(ctx, payload); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i := 0; i < batch; i++ {
			m.Reset()
			if _, err := m.RunContext(ctx, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.count("ca.run_self_ns", quietDiff(whole, bare)-fast(leases))

	st, err := a.StreamContext(ctx)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := l.timed("ca.feed_ns_per_byte", float64(len(chunk)), time.Nanosecond, func() error {
		_, err := st.FeedContext(ctx, chunk)
		return err
	}); err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := l.timed("ca.suspend_us", 1, time.Microsecond, func() error {
		snap.Reset()
		return st.Suspend(&snap)
	}); err != nil {
		return err
	}
	if err := l.timed("ca.resume_us", 1, time.Microsecond, func() error {
		rs, err := a.ResumeStreamContext(ctx, bytes.NewReader(snap.Bytes()))
		if err != nil {
			return err
		}
		l.check(rs.Pos() == st.Pos())
		rs.Close()
		return nil
	}); err != nil {
		return err
	}

	// The machine-level halves of a checkpoint, mid-stream.
	m.Reset()
	if _, err := m.RunContext(ctx, chunk); err != nil {
		return err
	}
	var ms *machine.Snapshot
	const snaps = 100
	if err := l.timed("machine.snapshot_ns", snaps, time.Nanosecond, func() error {
		for i := 0; i < snaps; i++ {
			ms = m.Snapshot()
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.timed("machine.restore_ns", snaps, time.Nanosecond, func() error {
		for i := 0; i < snaps; i++ {
			if err := m.Restore(ms); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var wire bytes.Buffer
	if _, err := ms.WriteTo(&wire); err != nil {
		return err
	}
	l.count("machine.snapshot_bytes", float64(wire.Len()))
	return nil
}

// baselines times the competitors on scan-sparse's rule set and buffer:
// the table DFA, the active-list NFA, and Go's regexp. They bound what
// choosing an engine per rule set could buy on scan_mb_per_s.
func (l *layerRun) baselines(context.Context) error {
	n, err := regexc.CompileSet(sparseRules, regexc.Options{})
	if err != nil {
		return err
	}
	buf := sparseBuffer(rand.New(rand.NewSource(l.cfg.seed)), sparseBytes)[:64<<10]
	per := float64(len(buf))

	ne := baseline.NewNFAEngine(n)
	var want int64
	if err := l.timed("baseline.nfa_ns_per_byte", per, time.Nanosecond, func() error {
		ne.Reset()
		_, want = ne.Run(buf, false)
		return nil
	}); err != nil {
		return err
	}
	de, err := baseline.NewDFAEngine(n, 0)
	if err != nil {
		return err
	}
	if err := l.timed("baseline.dfa_ns_per_byte", per, time.Nanosecond, func() error {
		de.Reset()
		_, got := de.Run(buf, false)
		l.check(got == want)
		return nil
	}); err != nil {
		return err
	}
	res := make([]*regexp.Regexp, len(sparseRules))
	for i, r := range sparseRules {
		if res[i], err = regexp.Compile("(?s)" + r); err != nil {
			return err
		}
	}
	return l.timed("baseline.goregexp_ns_per_byte", per, time.Nanosecond, func() error {
		for _, re := range res {
			re.FindAllIndex(buf, -1)
		}
		return nil
	})
}
