package machine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/workload"
)

// memoBenchRows are the shapes BenchmarkKernelMemo times: the ledger's
// scan-dense rule set over a scan's length and over a serving request's,
// the four registry benchmarks whose configurations seldom come back,
// ClamAV, whose configurations come back but too seldom to pay for their
// misses (the two halves of the back-off rule, see memoFresh), and
// PowerEN over 64 KiB, a run short enough for the learning allowance to
// matter.
func memoBenchRows(b *testing.B) []struct {
	name string
	m    *Machine
	in   []byte
} {
	type row = struct {
		name string
		m    *Machine
		in   []byte
	}
	var rows []row
	for _, r := range []struct {
		bench string
		size  int
	}{{"Snort", 256 << 10}, {"Snort", 64 << 10}, {"Snort", 1 << 10}, {"Fermi", 256 << 10}, {"SPM", 256 << 10},
		{"RandomForest", 256 << 10}, {"Protomata", 256 << 10}, {"ClamAV", 256 << 10}, {"PowerEN", 64 << 10}} {
		spec := workload.ByName(r.bench)
		n, err := spec.Build(1, 0.1)
		m, err := New(mapped(b, n, err), Options{CollectMatches: true})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumPartitions() < 2 {
			b.Fatalf("%s@0.1 maps to one partition; the memo serves many", r.bench)
		}
		rows = append(rows, row{fmt.Sprintf("%s@0.1/%dKiB", r.bench, r.size>>10), m, spec.Input(1, r.size)})
	}
	return rows
}

// BenchmarkKernelMemo times a run from Reset through the path scan takes
// (the memo, or the kernel where a gate turns the memo away) against
// runBatchN alone over the same input, the two alternating within each
// iteration so that a change in the host's speed falls on both. It
// reports ns/byte of each and their ratio, and what the memo cost: the
// bytes of arrays it made per run, its misses per KiB of input, and the
// share of the input's symbols it served from its table (0 for a run a
// gate sent to the kernel).
func BenchmarkKernelMemo(b *testing.B) {
	for _, r := range memoBenchRows(b) {
		b.Run(r.name, func(b *testing.B) {
			var memo, kernel time.Duration
			var alloc, misses, hits int64
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2; j++ {
					r.m.Reset()
					t0 := time.Now()
					if (i+j)%2 == 0 {
						mm := r.m.newMemo(len(r.in))
						r.m.scan(context.Background(), r.in, mm)
						memo += time.Since(t0)
						if mm != nil {
							alloc, misses, hits = alloc+int64(mm.alloc), misses+mm.misses, hits+mm.hits
						}
					} else {
						r.m.runBatchN(r.in)
						kernel += time.Since(t0)
					}
				}
			}
			perByte := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*len(r.in)) }
			b.ReportMetric(perByte(memo), "memo-ns/byte")
			b.ReportMetric(perByte(kernel), "runBatchN-ns/byte")
			b.ReportMetric(float64(memo)/float64(kernel), "memo/runBatchN")
			b.ReportMetric(float64(alloc)/float64(b.N), "memo-B/run")
			b.ReportMetric(float64(misses)/float64(b.N)/float64(len(r.in)>>10), "misses/KiB")
			b.ReportMetric(float64(hits)/float64(b.N*len(r.in)), "hit-ratio")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// TestMemoBytesBounded scans 256 KiB of random bytes over a rule set
// whose configurations do not fit the memo's budget — forty windows of
// four to twelve symbols, each holding which of its positions followed
// its letter — with the gates open, so that every configuration is
// interned. What the run allocates must stay within memoBudget and a
// constant for the memo's scratch and the machine's own, the table must
// have been flushed, and the Result and Snapshot must be runBatchN's.
func TestMemoBytesBounded(t *testing.T) {
	in := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(in)
	var patterns []string
	for i := 0; i < 40; i++ {
		c := 'a' + i%20
		patterns = append(patterns, fmt.Sprintf("%c[^%c]{%d}%c", c, c, 4+i%9, 'A'+i%20))
	}
	m, err := New(mappedRules(t, patterns...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPartitions() < 2 {
		t.Fatalf("%d partitions; the memo serves many", m.NumPartitions())
	}
	m.Reset()
	m.runBatchN(in)
	m.derive(&m.res, m.basePos, m.baseBuf)
	want, wantSnap := m.res, m.Snapshot()

	const slack = 64 << 10
	m.Reset()
	mm := m.memoFor(0, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.scan(context.Background(), in, mm); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > memoBudget+slack {
		t.Errorf("the scan allocated %d bytes; the memo's budget is %d", allocated, memoBudget)
	}
	if m.memoCounts.flushes == 0 {
		t.Errorf("no flush in %d misses over %d configurations: the rule set fits the budget", mm.misses, len(mm.hashes))
	}
	assertResultsEqual(t, "memo", &want, &m.res)
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("the memo ends in %+v, runBatchN in %+v", got, wantSnap)
	}
	t.Logf("%d misses, %d flushes, %d bytes allocated", mm.misses, m.memoCounts.flushes, allocated)
}

// TestMemoBytesPerRun: a scan of 256 KiB over Snort@0.1, the ledger's
// scan-dense shape, through the memo newMemo makes allocates at most
// 1 MiB in all — a table that gave every configuration a dense row of
// steps allocated 2.3 MB here — and ends with runBatchN's Result and
// Snapshot.
func TestMemoBytesPerRun(t *testing.T) {
	snort := workload.ByName("Snort")
	n, err := snort.Build(1, 0.1)
	m, err := New(mapped(t, n, err), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := snort.Input(1, 256<<10)
	m.Reset()
	m.runBatchN(in)
	m.derive(&m.res, m.basePos, m.baseBuf)
	want, wantSnap := m.res, m.Snapshot()

	m.Reset()
	mm := m.newMemo(len(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.scan(context.Background(), in, mm); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mm == nil || mm.misses == 0 || mm.hits == 0 {
		t.Fatal("the scan did not run through a memo")
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 1<<20 {
		t.Errorf("the scan allocated %d bytes (%d of them the memo's arrays); want at most 1 MiB", allocated, mm.alloc)
	}
	assertResultsEqual(t, "memo", &want, &m.res)
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("the memo ends in %+v, runBatchN in %+v", got, wantSnap)
	}
}

// TestMemoWarmMissesOnlyReports: a memo that never backs off, run a
// second time over the same input from Reset, has seen every step the
// input takes, so it misses exactly on the steps that report (which it
// does not store) — one per reporting cycle — and on no step it stored.
// That second run is nearly all hits on configurations whose kernel
// steps went to the first run's Result, so it ends with runBatchN's
// Result and Snapshot only if the hits count everything, peaks included.
func TestMemoWarmMissesOnlyReports(t *testing.T) {
	snort := workload.ByName("Snort")
	n, err := snort.Build(1, 0.1)
	m, err := New(mapped(t, n, err), Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	in := snort.Input(1, 64<<10)
	m.Reset()
	m.runBatchN(in)
	m.derive(&m.res, m.basePos, m.baseBuf)
	want, wantSnap := m.res, m.Snapshot()

	mm := m.memoFor(0, false)
	var misses int64
	for pass := 0; pass < 2; pass++ {
		m.Reset()
		misses = mm.misses
		if err := m.scan(context.Background(), in, mm); err != nil {
			t.Fatal(err)
		}
	}
	if m.memoCounts.flushes != 0 {
		t.Fatal("the table was flushed")
	}
	cycles := 0
	for i, r := range m.res.Matches {
		if i == 0 || r.Offset != m.res.Matches[i-1].Offset {
			cycles++
		}
	}
	if got := mm.misses - misses; got != int64(cycles) {
		t.Errorf("a warm pass missed %d times over %d reporting cycles", got, cycles)
	}
	assertResultsEqual(t, "warm memo", &want, &m.res)
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("the warm memo ends in %+v, runBatchN in %+v", got, wantSnap)
	}
}

// TestMemoStoresNoReport: a transition whose step reported is not
// stored, so every visit to it runs on the kernel, which makes every
// report. The CA_S order probe's input is one literal six times over,
// each copy ending in one reporting cycle from the configuration the
// copy before it started from; a memo that never backs off must miss on
// each of those cycles, not on the first copy's alone, and end where
// runBatchN does.
func TestMemoStoresNoReport(t *testing.T) {
	patterns, input := orderProbe(rand.New(rand.NewSource(3)))
	m, err := New(mappedSpace(t, patterns...), Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPartitions() < 2 {
		t.Fatalf("%d partitions; the memo serves many", m.NumPartitions())
	}
	want := driveLoop(m, symbolLoops[0].start, input, len(input))

	m.Reset()
	mm := m.memoFor(0, false)
	lit := len(input) / 6
	for i := 0; i < 6; i++ {
		misses, matches := mm.misses, len(m.res.Matches)
		mm.run(input[i*lit : (i+1)*lit])
		cycles := 0
		for j, r := range m.res.Matches[matches:] {
			if j == 0 || r.Offset != m.res.Matches[matches+j-1].Offset {
				cycles++
			}
		}
		if cycles == 0 {
			t.Fatalf("copy %d of the literal makes no report", i)
		}
		if got := mm.misses - misses; got < int64(cycles) {
			t.Errorf("copy %d of the literal: %d misses over %d reporting cycles", i, got, cycles)
		}
	}
	m.derive(&m.res, m.basePos, m.baseBuf)
	assertResultsEqual(t, "memo", &want.res, &m.res)
	if got := m.Snapshot(); !reflect.DeepEqual(got, want.snap) {
		t.Errorf("the memo ends in %+v, runBatchN in %+v", got, want.snap)
	}
	if m.Pos() != want.pos {
		t.Errorf("the memo ends at %d, runBatchN at %d", m.Pos(), want.pos)
	}
}

// TestObserverSeesMemoCounts: what a run's memo did reaches the Observer
// beside the Result — the hits and misses of a scan long enough for the
// memo, the symbols of one too short for it, and the sum over the shard
// workers of a sharded run — and the Result stays the kernel's. Every
// symbol of a run is a hit, a miss or a bypassed symbol; a sharded run's
// workers also scan their warm-ups and repairs, which its Result leaves
// out.
func TestObserverSeesMemoCounts(t *testing.T) {
	snort := workload.ByName("Snort")
	n, err := snort.Build(1, 0.1)
	pl := mapped(t, n, err)
	obs := &testObserver{}
	ms := make([]*Machine, 2)
	for i := range ms {
		if ms[i], err = New(pl, Options{CollectMatches: true}); err != nil {
			t.Fatal(err)
		}
		ms[i].Observer = obs
	}
	m := ms[0]
	in := snort.Input(1, 4*memoMinBytes)
	counts := func() memoCounts { return ms[0].memoCounts.plus(ms[1].memoCounts) }
	last := func() memoCounts {
		r := obs.runs[len(obs.runs)-1]
		return memoCounts{r.MemoHits, r.MemoMisses, r.MemoFlushes, r.MemoBypassedSymbols}
	}
	served := func(c memoCounts) int64 { return c.hits + c.misses + c.bypassed }
	symbols := func() int64 { return obs.runs[len(obs.runs)-1].Symbols }

	m.Reset()
	before := counts()
	res := mustRun(m, in)
	if got, want := last(), counts().minus(before); got != want || got.misses == 0 || got.hits == 0 {
		t.Errorf("a %d-byte scan reports %+v; its memo did %+v", len(in), got, want)
	}
	if got := served(last()); got != symbols() {
		t.Errorf("a %d-byte scan: hits + misses + bypassed = %d, over %d symbols", len(in), got, symbols())
	}
	m.Reset()
	m.runBatchN(in)
	m.derive(&m.res, m.basePos, m.baseBuf)
	assertResultsEqual(t, "memo", &m.res, res)

	m.Reset()
	mustRun(m, in[:100])
	if got := last(); got != (memoCounts{bypassed: 100}) {
		t.Errorf("a 100-byte scan reports %+v; want 100 bypassed symbols and nothing else", got)
	}

	before = counts()
	if _, err := RunShardedContext(context.Background(), ms, in); err != nil {
		t.Fatal(err)
	}
	if got, want := last(), counts().minus(before); got != want || got.misses == 0 {
		t.Errorf("a sharded scan reports %+v; its workers' memos did %+v", got, want)
	}
	if got := served(last()); got < symbols() {
		t.Errorf("a sharded scan: hits + misses + bypassed = %d, over %d symbols", got, symbols())
	}
}

// TestShardedMemoMatchesSequential: shard workers whose warm-up, range and
// repair each run through one memo give the sequential Result bit for bit
// — on the ledger's scan-dense rule set, and on a rule set whose q.*zz
// holds a bit from the first symbol to the last, so that every shard's
// speculation misses and its repair runs on the memo its first attempt
// filled.
func TestShardedMemoMatchesSequential(t *testing.T) {
	snort := workload.ByName("Snort")
	sn, err := snort.Build(1, 0.1)
	rng := rand.New(rand.NewSource(41))
	held := randomText(rng, 3*memoMinBytes+777, []string{"common07head", "common23head", "q", "z"})
	held = bytes.ReplaceAll(held, []byte("zz"), []byte("zy"))
	held[0] = 'q'
	for _, c := range []struct {
		name  string
		pl    *mapper.Placement
		input []byte
	}{
		{"registry Snort", mapped(t, sn, err), snort.Input(1, 3*memoMinBytes+777)},
		{"a bit held throughout", mappedRules(t, append(manyLiteralPatterns(40), "q.*zz")...), held},
	} {
		ms := make([]*Machine, 4)
		for i := range ms {
			if ms[i], err = New(c.pl, Options{CollectMatches: true}); err != nil {
				t.Fatal(err)
			}
		}
		if ms[0].NumPartitions() < 2 {
			t.Fatalf("%s: one partition; the memo serves many", c.name)
		}
		ms[0].Reset()
		ms[0].runBatchN(c.input)
		ms[0].derive(&ms[0].res, ms[0].basePos, ms[0].baseBuf)
		want := ms[0].res
		for _, shards := range []int{2, 3} {
			before := ms[1].memoCounts
			got, err := RunShardedContext(context.Background(), ms[1:1+shards], c.input)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, fmt.Sprintf("%s, %d shards", c.name, shards), &want, got)
			if ms[1].memoCounts.misses == before.misses {
				t.Fatalf("%s, %d shards: the first worker's memo missed nothing; it did not run", c.name, shards)
			}
		}
	}
}

// TestRunBatchMemoPerStream: each stream of a batch is its own run, so a
// stream of memoMinBytes goes through a memo and keeps its kernel Result,
// while streams shorter than that run on the kernel however much the
// batch adds up to.
func TestRunBatchMemoPerStream(t *testing.T) {
	snort := workload.ByName("Snort")
	n, err := snort.Build(1, 0.1)
	m, err := New(mapped(t, n, err), Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	in := snort.Input(1, memoMinBytes)
	short := in[:memoMinBytes/4]
	kernel := func(in []byte) Result {
		m.Reset()
		m.runBatchN(in)
		m.derive(&m.res, m.basePos, m.baseBuf)
		return m.res
	}
	whole, quarter := kernel(in), kernel(short)

	before := m.memoCounts
	out, err := m.RunBatch(context.Background(), []string{string(in)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	assertResultsEqual(t, "long stream", &whole, &out[0].Result)
	if m.memoCounts.misses == before.misses {
		t.Fatal("long stream: the memo missed nothing; it did not run")
	}

	before = m.memoCounts
	out, err = m.RunBatch(context.Background(), []string{string(short), string(short), string(short), string(short)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil {
			t.Fatal(out[i].Err)
		}
		assertResultsEqual(t, fmt.Sprintf("short stream %d", i), &quarter, &out[i].Result)
	}
	if got := m.memoCounts.minus(before); got.misses != 0 || got.bypassed != int64(4*len(short)) {
		t.Fatalf("short streams: memo counts %+v, want no misses and %d bypassed symbols", got, 4*len(short))
	}
}
