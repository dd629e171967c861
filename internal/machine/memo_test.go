package machine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

// memoBenchRows are the shapes BenchmarkKernelMemo times: the ledger's
// scan-dense rule set over a scan's length, over 8 KiB, the shortest run
// the memo serves, and over a serving request's, below it; the four
// registry benchmarks whose configurations seldom come back, and Fermi
// again over 8 KiB;
// ClamAV, whose configurations come back but too seldom to pay for their
// misses (the two halves of the back-off rule, see memoFresh), over a
// scan's length and over 16 KiB; PowerEN over 64 KiB, a run short enough
// for the learning allowance to matter; and compile-cold's shape over its
// 16 KiB probe.
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
	}{{"Snort", 256 << 10}, {"Snort", 64 << 10}, {"Snort", 8 << 10}, {"Snort", 1 << 10},
		{"Fermi", 256 << 10}, {"Fermi", 8 << 10}, {"SPM", 256 << 10}, {"RandomForest", 256 << 10},
		{"Protomata", 256 << 10}, {"ClamAV", 256 << 10}, {"ClamAV", 16 << 10}, {"PowerEN", 64 << 10}} {
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
	pl, in := coldShape(b, 16<<10)
	m, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		b.Fatal(err)
	}
	return append(rows, row{"compile-cold/16KiB", m, in})
}

// coldShape is the shape of the ledger's compile-cold rule set and probe,
// generated as its bench generates them: 2 000 rules cycling through a
// literal path, a class repeat, a five-way alternation behind a shared
// prefix and a .* gap, and n bytes of 8-byte filler runs with a literal
// one of the rules matches planted about every 512 bytes, the first a
// .* rule's. It maps to over two hundred partitions, most of them awake
// on every symbol.
func coldShape(t testing.TB, n int) (*mapper.Placement, []byte) {
	rng := rand.New(rand.NewSource(1))
	word := func(lo, hi int) string {
		b := make([]byte, lo+rng.Intn(hi-lo+1))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	rules, lits := make([]string, 2000), make([]string, 2000)
	for i := range rules {
		switch i % 4 {
		case 0:
			p, ext := "/"+word(5, 9)+"/"+word(8, 14), word(3, 3)
			rules[i], lits[i] = p+`\.`+ext, p+"."+ext
		case 1:
			w := word(8, 14)
			rules[i], lits[i] = w+"=[0-9a-f]{8}", w+"=deadbeef"
		case 2:
			prefix, alts := word(8, 12), make([]string, 5)
			for a := range alts {
				alts[a] = word(6, 10)
			}
			rules[i], lits[i] = prefix+"("+strings.Join(alts, "|")+")", prefix+alts[rng.Intn(5)]
		default:
			a, b := word(6, 10), word(6, 10)
			rules[i], lits[i] = a+".*"+b, a+" "+b
		}
	}
	const filler = "abcdefghij xyz 0123456789 qrstuvw "
	in := make([]byte, 0, n+64)
	for next := 256; len(in) < n; {
		if len(in) >= next {
			lit := lits[3]
			if next > 256 {
				lit = lits[rng.Intn(len(lits))]
			}
			in = append(in, lit...)
			next = len(in) + 256 + rng.Intn(512)
			continue
		}
		i := rng.Intn(len(filler) - 8)
		in = append(in, filler[i:i+8]...)
	}
	n2, err := regexc.CompileSet(rules, regexc.Options{})
	return mapped(t, n2, err), in[:n]
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
// constant for the memo's scratch and the machine's own, the memo's
// arrays within memoBudget, the table must have been flushed, and the
// Result and Snapshot must be runBatchN's.
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
	if mm.alloc > memoBudget {
		t.Errorf("the memo made %d bytes of arrays; its budget is %d", mm.alloc, memoBudget)
	}
	if m.memoCounts.flushes == 0 {
		t.Errorf("no flush in %d misses over %d configurations: the rule set fits the budget", mm.misses, len(mm.hashes))
	}
	assertResultsEqual(t, "memo", &want, &m.res)
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("the memo ends in %+v, runBatchN in %+v", got, wantSnap)
	}
	t.Logf("%d misses, %d flushes, %d bytes allocated", mm.misses, m.memoCounts.flushes, allocated)

	// A table that earns its dense rows late, with its budget nearly
	// spent, gets them only if the budget holds them and the steps they
	// leave behind: Fermi@0.1's table after 4 KiB holds no rows and a
	// thousand steps or more, and here everything but its steps'
	// bytes is taken.
	fermi := workload.ByName("Fermi")
	fn, err := fermi.Build(1, 0.1)
	m, err = New(mapped(t, fn, err), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	mm = m.memoFor(0, false)
	if err := m.scan(context.Background(), fermi.Input(1, 4<<10), mm); err != nil {
		t.Fatal(err)
	}
	if len(mm.dense) != 0 || mm.nsteps < 1<<10 {
		t.Fatalf("Fermi@0.1's table has %d rows and %d steps; want none and a thousand or more", len(mm.dense)/mm.nc, mm.nsteps)
	}
	mm.alloc = memoBudget - len(mm.steps)*int(unsafe.Sizeof(memoStep{}))
	mm.hits = 1 << 20
	mm.rows(len(mm.confs))
	if mm.alloc > memoBudget {
		t.Errorf("earning rows late took the memo to %d bytes of arrays; its budget is %d", mm.alloc, memoBudget)
	}
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

// TestMemoTurnedAwayIsCheap: Fermi@0.1 and RandomForest@0.1, whose
// configurations never come back, over 8 KiB through the memo newMemo
// makes: the back-off rule turns each away within its first few hundred
// symbols, before its table has earned dense rows, so the run makes at
// most 128 KiB of memo arrays (a memo that gave its first configuration
// 256 dense rows made 425–457 KB here), and it ends with runBatchN's
// Result and Snapshot.
func TestMemoTurnedAwayIsCheap(t *testing.T) {
	for _, name := range []string{"Fermi", "RandomForest"} {
		spec := workload.ByName(name)
		n, err := spec.Build(1, 0.1)
		m, err := New(mapped(t, n, err), Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		in := spec.Input(1, 8<<10)
		m.Reset()
		m.runBatchN(in)
		m.derive(&m.res, m.basePos, m.baseBuf)
		want, wantSnap := m.res, m.Snapshot()

		m.Reset()
		before := m.memoCounts
		mm := m.newMemo(len(in))
		if err := m.scan(context.Background(), in, mm); err != nil {
			t.Fatal(err)
		}
		if mm == nil || mm.misses == 0 {
			t.Fatalf("%s@0.1: the scan did not run through a memo", name)
		}
		got := m.memoCounts.minus(before)
		if got.bypassed < int64(len(in))*3/4 {
			t.Errorf("%s@0.1: %d of %d symbols bypassed; the back-off rule did not turn the run away", name, got.bypassed, len(in))
		}
		if mm.alloc > 128<<10 {
			t.Errorf("%s@0.1: a turned-away run made %d bytes of memo arrays over %d misses; want at most 128 KiB", name, mm.alloc, mm.misses)
		}
		assertResultsEqual(t, name, &want, &m.res)
		if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
			t.Errorf("%s@0.1: the memo ends in %+v, runBatchN in %+v", name, got, wantSnap)
		}
	}
}

// TestMemoComesBack: Hamming@0.1 interns a configuration on nearly every
// one of its first few hundred symbols, as the sets whose configurations
// never come back do, so the back-off rule turns it away; but they do come
// back, and the fresh-configuration trigger counts from each return, so a
// run of 64 KiB returns to the memo and serves most of its symbols from
// the table.
func TestMemoComesBack(t *testing.T) {
	spec := workload.ByName("Hamming")
	n, err := spec.Build(1, 0.1)
	m, err := New(mapped(t, n, err), Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	in := spec.Input(1, 64<<10)
	m.Reset()
	m.runBatchN(in)
	m.derive(&m.res, m.basePos, m.baseBuf)
	want := m.res

	m.Reset()
	before := m.memoCounts
	if err := m.scan(context.Background(), in, m.newMemo(len(in))); err != nil {
		t.Fatal(err)
	}
	got := m.memoCounts.minus(before)
	if got.bypassed == 0 || got.hits < int64(len(in))/2 {
		t.Errorf("Hamming@0.1 over %d symbols: %+v; want some bypassed and most served by hits", len(in), got)
	}
	assertResultsEqual(t, "Hamming", &want, &m.res)
}

// TestMemoShortRunsMatchKernel: every registry set at 0.1 that maps to
// many partitions, over memoMinBytes and half as much again, through the
// memo newMemo makes, ends with runBatchN's Result and Snapshot; and the
// memo ran.
func TestMemoShortRunsMatchKernel(t *testing.T) {
	for _, spec := range workload.All() {
		n, err := spec.Build(1, 0.1)
		m, err := New(mapped(t, n, err), Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumPartitions() < 2 {
			continue
		}
		for _, size := range []int{memoMinBytes, memoMinBytes * 3 / 2} {
			in := spec.Input(1, size)
			m.Reset()
			m.runBatchN(in)
			m.derive(&m.res, m.basePos, m.baseBuf)
			want, wantSnap := m.res, m.Snapshot()

			m.Reset()
			mm := m.newMemo(len(in))
			if err := m.scan(context.Background(), in, mm); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s@0.1 over %d bytes", spec.Name, size)
			if mm == nil || mm.misses == 0 {
				t.Fatalf("%s: the scan did not run through a memo", label)
			}
			assertResultsEqual(t, label, &want, &m.res)
			if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
				t.Errorf("%s: the memo ends in %+v, runBatchN in %+v", label, got, wantSnap)
			}
		}
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
	in := snort.Input(1, 128<<10)
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
// — on the ledger's scan-dense rule set; on a rule set whose q.*zz holds a
// bit from the first symbol to the last, so that every shard's
// speculation misses and its repair runs on the memo its first attempt
// filled; and on compile-cold's shape over its 16 KiB probe in two
// shards, whose workers run 8 and 10 KiB, the second repaired, each
// through a memo.
func TestShardedMemoMatchesSequential(t *testing.T) {
	snort := workload.ByName("Snort")
	sn, err := snort.Build(1, 0.1)
	rng := rand.New(rand.NewSource(41))
	held := randomText(rng, 3*(32<<10)+777, []string{"common07head", "common23head", "q", "z"})
	held = bytes.ReplaceAll(held, []byte("zz"), []byte("zy"))
	held[0] = 'q'
	coldPl, coldIn := coldShape(t, 16<<10)
	for _, c := range []struct {
		name   string
		pl     *mapper.Placement
		input  []byte
		shards []int
	}{
		{"registry Snort", mapped(t, sn, err), snort.Input(1, 3*(32<<10)+777), []int{2, 3}},
		{"a bit held throughout", mappedRules(t, append(manyLiteralPatterns(40), "q.*zz")...), held, []int{2, 3}},
		{"compile-cold shape", coldPl, coldIn, []int{2}},
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
		for _, shards := range c.shards {
			before := make([]memoCounts, shards)
			for i := range before {
				before[i] = ms[1+i].memoCounts
			}
			got, err := RunShardedContext(context.Background(), ms[1:1+shards], c.input)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, fmt.Sprintf("%s, %d shards", c.name, shards), &want, got)
			for i := range before {
				if ms[1+i].memoCounts.misses == before[i].misses {
					t.Fatalf("%s, %d shards: worker %d's memo missed nothing; it did not run", c.name, shards, i)
				}
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
