package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/baseline"
	"cacheautomaton/internal/difftest"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

const (
	sparseBytes = 1 << 20
	denseBytes  = 256 << 10
	denseScale  = 0.1
	// registrySeed builds every workload-registry rule set the bench
	// uses, and the input it plants that rule set's literals in. The
	// registry's generators size an automaton from their seed — Snort at
	// scale 0.1 comes out at 26 to 28 partitions, and a scan costs per
	// live partition — so ten -seed values would measure ten workloads.
	// -seed reorders the input instead; see registryInput.
	registrySeed = 1
	shuffleBlock = 1 << 10
	// regexpSlice is how much of each end of the sparse buffer Go's regexp
	// also checks: difftest's oracle tests every prefix, which is
	// quadratic.
	regexpSlice = 2 << 10
)

// scanPlan is a scan workload with its inputs and oracle built.
type scanPlan struct {
	input  []byte
	want   digest
	shards int
	art    *artifact
	// pl is the bench's own placement of the same NFA, for the traced
	// run's replay through machine.RunContext below the facade.
	pl *mapper.Placement
}

// mapNFA places n the way the facade does for the default design.
func mapNFA(n *nfa.NFA) (*mapper.Placement, error) {
	return mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
}

// oracleDigest runs input through a, cross-checks its distinct reports
// against the baseline NFA engine's on the same NFA, and returns the
// digest of a's matches as delivered: what every timed run of the same
// automaton over the same input must reproduce.
func oracleDigest(ctx context.Context, n *nfa.NFA, a *ca.Automaton, input []byte) (digest, error) {
	ref, _ := baseline.NewNFAEngine(n).Run(input, true)
	refReports := make([]report, len(ref))
	for i, m := range ref {
		refReports[i] = report{int64(m.Offset), m.Code}
	}
	ms, _, err := a.RunContext(ctx, input)
	if err != nil {
		return digest{}, err
	}
	if got, want := digestSet(reportsOf(ms)), digestSet(refReports); got != want {
		return digest{}, fmt.Errorf("RunContext (%v) disagrees with baseline.NFAEngine (%v)", got, want)
	}
	return digestMatches(ms), nil
}

// newScanPlan fixes the digest every timed scan must reproduce.
func newScanPlan(ctx context.Context, cfg *config, n *nfa.NFA, input []byte, compile func() (*ca.Automaton, error)) (*scanPlan, error) {
	a, err := compile()
	if err != nil {
		return nil, err
	}
	want, err := oracleDigest(ctx, n, a, input)
	if err != nil {
		return nil, err
	}
	pl, err := mapNFA(n)
	if err != nil {
		return nil, err
	}
	art, err := newArtifact(compile)
	if err != nil {
		return nil, err
	}
	p := &scanPlan{input: input, want: want, shards: cfg.clients, art: art, pl: pl}
	if cfg.corruptOracle {
		p.want.sum ^= 1
	}
	return p, nil
}

func prepareScanSparse(ctx context.Context, cfg *config) (*prepared, error) {
	input := sparseBuffer(rand.New(rand.NewSource(cfg.seed)), sparseBytes)
	n, err := regexc.CompileSet(sparseRules, regexc.Options{})
	if err != nil {
		return nil, err
	}
	compile := func() (*ca.Automaton, error) { return ca.CompileRegex(sparseRules, ca.Options{}) }
	p, err := newScanPlan(ctx, cfg, n, input, compile)
	if err != nil {
		return nil, err
	}
	// Go's regexp is the second opinion, on the two ends of the buffer —
	// what it can afford; the tail is where other.*thing fires.
	a, err := compile()
	if err != nil {
		return nil, err
	}
	for _, part := range [][]byte{input[:regexpSlice], input[len(input)-regexpSlice:]} {
		ms, _, err := a.RunContext(ctx, part)
		if err != nil {
			return nil, err
		}
		want, err := difftest.Reference(sparseRules, part)
		if err != nil {
			return nil, err
		}
		got := make([]difftest.Report, len(ms))
		for i, m := range ms {
			got[i] = difftest.Report{Pattern: m.Pattern, Offset: m.Offset}
		}
		if d := difftest.Diff(want, difftest.Set(got)); d != "" {
			return nil, fmt.Errorf("RunContext disagrees with Go regexp: %s", d)
		}
	}
	return p.prepared(), nil
}

func prepareScanDense(ctx context.Context, cfg *config) (*prepared, error) {
	spec := workload.ByName("Snort")
	n, err := spec.Build(registrySeed, denseScale)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := anml.Write(&text, n, "snort", nil); err != nil {
		return nil, err
	}
	compile := func() (*ca.Automaton, error) {
		return ca.CompileANML(bytes.NewReader(text.Bytes()), ca.Options{})
	}
	p, err := newScanPlan(ctx, cfg, n, registryInput(spec, cfg.seed, denseBytes), compile)
	if err != nil {
		return nil, err
	}
	return p.prepared(), nil
}

// registryInput is size bytes of the registry's input for spec's rule
// set with its shuffleBlock-sized blocks in an order drawn from seed:
// the same symbols, the same planted literals but for the few a block
// edge cuts, so the same activity — in another order for every seed.
func registryInput(spec *workload.Spec, seed int64, size int) []byte {
	in := spec.Input(registrySeed, size)
	out := make([]byte, 0, size)
	for _, b := range rand.New(rand.NewSource(seed)).Perm((size + shuffleBlock - 1) / shuffleBlock) {
		end := (b + 1) * shuffleBlock
		if end > size {
			end = size
		}
		out = append(out, in[b*shuffleBlock:end]...)
	}
	return out
}

// artifact is a rule set as the facade deploys it: compile compiles it
// from source, and load loads it back from the bytes a compiled
// automaton saved. compile_s and load_s sample the two apart, each call
// timed on its own (see sideSampler).
type artifact struct {
	compile func() (*ca.Automaton, error)
	saved   []byte
}

func newArtifact(compile func() (*ca.Automaton, error)) (*artifact, error) {
	a, err := compile()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return nil, err
	}
	return &artifact{compile: compile, saved: buf.Bytes()}, nil
}

func (art *artifact) load() (*ca.Automaton, error) {
	return ca.Load(bytes.NewReader(art.saved), ca.Options{})
}

func (p *scanPlan) prepared() *prepared {
	return &prepared{
		setup: func(ctx context.Context) (instance, error) {
			// Compile from source, save, load from the saved bytes: what
			// the workload then drives is what a server booting from its
			// compile cache would serve.
			art, err := newArtifact(p.art.compile)
			if err != nil {
				return nil, err
			}
			a, err := art.load()
			if err != nil {
				return nil, err
			}
			// Pool pre-build: the first sharded run builds the shard
			// machines, so do it here on the shortest input that shards.
			warm := p.input
			if max := p.shards * 4 * machine.DefaultShardOverlap; len(warm) > max {
				warm = warm[:max]
			}
			if _, _, err := a.RunParallelContext(ctx, warm, p.shards); err != nil {
				return nil, err
			}
			return &scanInstance{scanPlan: p, a: a}, nil
		},
		artifact: p.art,
	}
}

type scanInstance struct {
	*scanPlan
	a *ca.Automaton
	// replay machines, built on the first traced round.
	ms []*machine.Machine
}

// scanSampleEvery is the replay rate of the scan workloads, whose
// operations are few and long.
const scanSampleEvery = 4

// round is one serial and one sharded scan of the whole buffer, however
// long a round the harness asked for: on a host that is only quiet for
// moments, one scan per sample is what finds them. The request of a
// scan workload is the serial scan, so with one per round req_p50_us
// and req_p99_us are both its time.
func (s *scanInstance) round(ctx context.Context, _ time.Duration, tr *tracer) (roundResult, error) {
	var res roundResult
	check := func(ms []ca.Match, err error) {
		res.attempted++
		if err != nil || digestMatches(ms) != s.want {
			res.failed++
		}
	}
	if tr != nil && s.ms == nil {
		for i := 0; i < s.shards; i++ {
			m, err := machine.New(s.pl, machine.Options{CollectMatches: true})
			if err != nil {
				return res, err
			}
			s.ms = append(s.ms, m)
		}
	}
	req := tr.nextReq()
	root := tr.begin("scan", -1, req, false)

	sp := tr.begin("ca.Automaton.RunContext", root, req, false)
	t0 := time.Now()
	ms, _, err := s.a.RunContext(ctx, s.input)
	serial := time.Since(t0)
	tr.end(sp)
	check(ms, err)

	ps := tr.begin("ca.Automaton.RunParallelContext", root, req, false)
	t0 = time.Now()
	ms, _, err = s.a.RunParallelContext(ctx, s.input, s.shards)
	sharded := time.Since(t0)
	tr.end(ps)
	check(ms, err)
	tr.end(root)

	if tr != nil && req%scanSampleEvery == 0 {
		if err := s.replay(ctx, tr, req, sp, ps); err != nil {
			return res, err
		}
	}
	size := int64(len(s.input))
	res.values = map[string]float64{
		"scan_mb_per_s":  mbPerS(size, serial),
		"shard_mb_per_s": mbPerS(size, sharded),
		"req_per_s":      1 / serial.Seconds(),
		"req_p50_us":     micros(serial),
		"req_p99_us":     micros(serial),
	}
	res.primary = res.values["scan_mb_per_s"]
	return res, nil
}

// replay re-runs the scan through the entry points below the facade:
// the lease and Lease.RunContext under RunContext, the machine under
// that, and the sharded engine under RunParallelContext.
func (s *scanInstance) replay(ctx context.Context, tr *tracer, req int64, serialSpan, shardSpan int32) error {
	sp := tr.begin("ca.Automaton.LeaseContext", serialSpan, req, true)
	l, err := s.a.LeaseContext(ctx)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer l.Release()
	run := tr.begin("ca.Lease.RunContext", serialSpan, req, true)
	_, _, err = l.RunContext(ctx, s.input)
	tr.end(run)
	if err != nil {
		return err
	}
	sp = tr.begin("machine.Machine.RunContext", run, req, true)
	s.ms[0].Reset()
	_, err = s.ms[0].RunContext(ctx, s.input)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("machine.RunShardedContext", shardSpan, req, true)
	_, err = machine.RunShardedContext(ctx, s.ms, s.input)
	tr.end(sp)
	return err
}

func (s *scanInstance) close(context.Context) error { return nil }
