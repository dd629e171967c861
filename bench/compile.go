package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/regexc"
)

const (
	coldRuleCount = 2000
	// probeBytes is the input a freshly loaded automaton is checked on:
	// the shortest that RunParallelContext splits into two shards.
	probeBytes = 16 << 10
)

// coldPlan is compile-cold's rule set and probe.
type coldPlan struct {
	rules  []string
	probe  []byte
	want   digest
	shards int
}

func prepareCompileCold(ctx context.Context, cfg *config) (*prepared, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	rules, lits := coldRules(rng, coldRuleCount)
	p := &coldPlan{rules: rules, probe: plantedText(rng, probeBytes, lits), shards: cfg.clients}

	n, err := regexc.CompileSet(rules, regexc.Options{})
	if err != nil {
		return nil, err
	}
	a, err := ca.CompileRegex(rules, ca.Options{})
	if err != nil {
		return nil, err
	}
	if p.want, err = oracleDigest(ctx, n, a, p.probe); err != nil {
		return nil, err
	}
	if cfg.corruptOracle {
		p.want.sum ^= 1
	}
	return &prepared{setup: func(ctx context.Context) (instance, error) {
		// The first cold cycle is the set-up: everything lazy in the
		// compile path (tables, pools) is paid here, not in round one.
		in := &coldInstance{coldPlan: p}
		_, err := in.cycle(ctx, nil, &roundResult{})
		return in, err
	}}, nil
}

type coldInstance struct {
	*coldPlan
	// live is the automaton of the last cycle, kept so heap_mb is
	// measured with a loaded rule set resident.
	live *ca.Automaton
}

// cycleTimes is what one compile → save → load → probe cycle measured.
type cycleTimes struct {
	compile, load, serial, sharded, total time.Duration
}

// coldSampleEvery is the replay rate of compile-cold, whose cycles are
// few and long.
const coldSampleEvery = 4

// cycle deploys the rule set cold once: compile from source, save, load
// from the saved bytes, and check the loaded automaton — it must serve
// the matches the compiled one did, serially and sharded, and saving it
// again must reproduce the artifact byte for byte.
func (c *coldInstance) cycle(ctx context.Context, tr *tracer, res *roundResult) (cycleTimes, error) {
	var ct cycleTimes
	req := tr.nextReq()
	root := tr.begin("cycle", -1, req, false)
	start := time.Now()
	// collect empties the heap before a stage that is timed on its own,
	// off the cycle's clock: a load is 5 ms of allocation, and whether
	// the collector the compile before it woke is still running decides
	// its time more than the loader does. Every compile_s and load_s
	// sample of the ledger starts from a collected heap.
	var collecting time.Duration
	collect := func() {
		sp := tr.begin("runtime.GC", root, req, false)
		t0 := time.Now()
		runtime.GC()
		collecting += time.Since(t0)
		tr.end(sp)
	}

	collect()
	compileSpan := tr.begin("ca.CompileRegex", root, req, false)
	t0 := time.Now()
	a, err := ca.CompileRegex(c.rules, ca.Options{})
	ct.compile = time.Since(t0)
	tr.end(compileSpan)
	if err != nil {
		return ct, err
	}

	var art bytes.Buffer
	saveSpan := tr.begin("ca.Automaton.Save", root, req, false)
	err = a.Save(&art)
	tr.end(saveSpan)
	if err != nil {
		return ct, err
	}

	collect()
	loadSpan := tr.begin("ca.Load", root, req, false)
	t0 = time.Now()
	loaded, err := ca.Load(bytes.NewReader(art.Bytes()), ca.Options{})
	ct.load = time.Since(t0)
	tr.end(loadSpan)
	if err != nil {
		return ct, err
	}

	check := func(ok bool) {
		res.attempted++
		if !ok {
			res.failed++
		}
	}
	sp := tr.begin("ca.Automaton.RunContext", root, req, false)
	t0 = time.Now()
	ms, _, err := loaded.RunContext(ctx, c.probe)
	ct.serial = time.Since(t0)
	tr.end(sp)
	check(err == nil && digestMatches(ms) == c.want)

	sp = tr.begin("ca.Automaton.RunParallelContext", root, req, false)
	t0 = time.Now()
	ms, _, err = loaded.RunParallelContext(ctx, c.probe, c.shards)
	ct.sharded = time.Since(t0)
	tr.end(sp)
	check(err == nil && digestMatches(ms) == c.want)

	var again bytes.Buffer
	sp = tr.begin("ca.Automaton.Save", root, req, false)
	err = loaded.Save(&again)
	tr.end(sp)
	check(err == nil && bytes.Equal(art.Bytes(), again.Bytes()))

	ct.total = time.Since(start) - collecting
	tr.end(root)
	c.live = loaded
	if tr != nil && req%coldSampleEvery == 0 {
		return ct, c.replay(ctx, tr, req, compileSpan, saveSpan, loadSpan, art.Bytes())
	}
	return ct, nil
}

// replay re-runs the cycle's three stages through the packages under
// the facade: regexc, mapper and the machine build under CompileRegex,
// caformat.Encode under Save, caformat.Decode and the machine build
// under Load.
func (c *coldInstance) replay(ctx context.Context, tr *tracer, req int64, compileSpan, saveSpan, loadSpan int32, art []byte) error {
	sp := tr.begin("regexc.CompileSet", compileSpan, req, true)
	n, err := regexc.CompileSet(c.rules, regexc.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mapper.Map", compileSpan, req, true)
	pl, err := mapNFA(n)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("machine.New", compileSpan, req, true)
	_, err = machine.New(pl, machine.Options{CollectMatches: true})
	tr.end(sp)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = tr.begin("caformat.Encode", saveSpan, req, true)
	err = caformat.Encode(&buf, pl, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("caformat.Decode", loadSpan, req, true)
	dpl, _, err := caformat.Decode(bytes.NewReader(art))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("machine.New", loadSpan, req, true)
	_, err = machine.New(dpl, machine.Options{CollectMatches: true})
	tr.end(sp)
	return err
}

// round is one cycle, which is longer than any round the harness asks
// for. The request of compile-cold is the cycle, so req_p50_us and
// req_p99_us are both its time.
func (c *coldInstance) round(ctx context.Context, _ time.Duration, tr *tracer) (roundResult, error) {
	var res roundResult
	ct, err := c.cycle(ctx, tr, &res)
	if err != nil {
		return res, err
	}
	size := int64(len(c.probe))
	res.values = map[string]float64{
		// Set-up is one cold cycle, so every cycle is a sample of it too.
		"setup_s":        ct.total.Seconds(),
		"compile_s":      ct.compile.Seconds(),
		"load_s":         ct.load.Seconds(),
		"req_per_s":      1 / ct.total.Seconds(),
		"req_p50_us":     micros(ct.total),
		"req_p99_us":     micros(ct.total),
		"scan_mb_per_s":  mbPerS(size, ct.serial),
		"shard_mb_per_s": mbPerS(size, ct.sharded),
	}
	res.primary = res.values["req_per_s"]
	return res, nil
}

func (c *coldInstance) close(context.Context) error { return nil }
