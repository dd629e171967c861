package machine

import (
	"math/bits"
	"slices"
	"unsafe"
)

// The configuration memo: a lazily built deterministic table in front of
// runBatchN, for one run.
//
// A configuration is the machine's whole architectural state between two
// symbols: the enabled vectors of the awake partitions (every other
// partition holds always). What a symbol does to it depends only on the
// configuration and the symbol's class, so a run that keeps returning to a
// few configurations — the low-active-set regime of rule sets like
// Snort's — can look the step up instead of simulating it. The memo
// interns each configuration it meets to a dense id and stores, per
// (id, class), the id the step leads to. A miss re-seats the vectors on
// the configuration and runs one symbol of runBatchN, which stays the one
// definition of a step; the memo only remembers what the kernel did.
//
// A table holds few configurations, each seen often, and most of its
// steps are never taken: Snort@0.1 over 256 KiB meets 813
// configurations and takes 6 703 of their 169 104 (configuration, class)
// steps. So only the first memoDense configurations, which take nearly
// all the hits, get a dense row of steps, and the others' steps share
// one open-addressed table. A key is the awake bitset and four words per
// awake partition, built and compared without packing, and keys live in
// fixed-size blocks that grow without copying. On that scan the memo
// allocates 0.65 MB, where dense rows for every configuration took
// 2.3 MB, and a miss costs about 390 ns, 150 of them the kernel's step,
// where it cost 580–700 (2-vCPU Xeon at 2.0 GHz, go1.24: best of
// alternating runs, cold scan less warm scan over the misses).
//
// What a cycle adds to the Result is memoized with it, so a Result is
// bit-identical to the kernel's:
//
//   - per configuration, the cycle's active states, Σ over awake
//     partitions of popcount(enabled &^ always), and its active startless
//     partitions, popcount(awake & startless). Both depend on the
//     configuration alone because wake never names a startless partition
//     (see runBatchN for the constants added to both). A hit counts a
//     visit to its configuration, and tally folds the visits into the
//     Result once per batch;
//   - per transition, the G1/G4 wires it drives, kept in a side entry
//     that only the transitions driving one have.
//
// A transition whose step reported is not stored: every visit to it
// misses and runs that one symbol on runBatchN, so every report is made
// by the kernel. Where the memo pays, runs report on at most 0.1 % of
// their symbols (at most 254 times in 256 KiB on the registry sets that
// map to many partitions under CA_P at scale 0.1).
//
// The memo lives for one run (see newMemo) and is garbage when the run
// returns. In prototypes, a table kept per machine raised scan-dense's
// live heap from 3.57 to 6.63 MB and compile-cold's from 5.56 to 12.7 MB,
// and one recycled through a sync.Pool started some machines warm and
// others cold.

// memoMinBytes is the shortest run the memo serves; shorter ones go
// straight to runBatchN. A memo starts cold with every run. Through a memo
// with no length gate (memo/runBatchN, BenchmarkKernelMemo's method, three
// runs at -benchtime 32x), Snort@0.1 reads 1.01–1.08× at 4 KiB,
// 0.52–0.80× at 8 KiB, 0.45–0.59× at 16 KiB, 0.32–0.36× at 32 KiB and
// 0.21–0.23× at 64 KiB, where the dense-row table it replaced read
// 1.12–1.24×, 1.11–1.20×, 1.13–1.18×, 0.58–0.72× and 0.36–0.37×.
// PowerEN@0.1 reads 1.20–1.24×, 1.12–1.25×, 0.69–0.75×, 0.53–0.58× and
// 0.36–0.39×, and ClamAV@0.1 1.92–2.39×, 1.50–1.83×, 1.23–1.39×,
// 1.20–1.24× and 1.21–1.26×. 16 KiB would now pay on the first two, but
// compile-cold's 16 KiB probe would then start a cold memo on a
// 231-partition rule set, which has not been measured.
const memoMinBytes = 32 << 10

// The back-off rule: a run goes to the kernel for the next memoBypass
// symbols when its memo is losing, by either of two triggers.
//
//   - Its configurations do not come back: it has interned more than one
//     for every memoFresh symbols the memo served, past the first
//     memoFreshSlack. Fermi@0.1, RandomForest@0.1, SPM@0.1 and
//     Protomata@0.1 intern one on 93–100 % of their symbols and Snort@0.1
//     on 14 % of its first kilobyte and 2 % of its fourth.
//   - Its misses have cost more than its hits saved, by more than a
//     learning allowance of 1/memoLearn of the kernel's work over the
//     whole run. Costs are in the kernel's partition visits: a hit saves
//     its configuration's awake partitions and one more for the step's
//     fixed work, and a miss costs memoMissCost. A cold table pays for its
//     first kilobytes of misses over the run's later symbols, and a run
//     with too few of them does not.
//
// Each constant was measured with the others held (memo/runBatchN, two or
// three runs per variant at -benchtime 4x to 16x, over 64 and 256 KiB of
// every registry set at 0.1 that maps to many partitions; the sets not
// named did not move):
//
//   - With the first trigger off, Fermi, RandomForest, SPM and Protomata
//     read 0.97–1.60×. With memoFresh 4 they read 0.88–1.19× and with 2
//     0.87–1.22×, but 2 keeps Brill@0.1 on the memo, at 0.09–0.26×
//     against 0.84–1.33×. A memoFreshSlack of 4 096 would keep
//     Hamming@0.1 on it too, at 0.14–0.44×, but then Fermi@0.1 over
//     64 KiB reads up to 1.44×.
//   - With the second trigger off, ClamAV@0.1, whose configurations come
//     back and yet miss on 23 % of its symbols, reads 1.56–1.77× over
//     64 KiB. memoMissCost is its price. At 8, ClamAV@0.1 over 256 KiB
//     reads 0.77–0.82× (six runs at 16x) and PowerEN@0.1 over 64 KiB
//     0.32–0.45×; at 16, 1.09–1.19× and 0.36–0.44×; at 32, the price
//     set when a miss cost half again as much, 0.83–1.11× and 0.86–1.15×.
//     At 8 ClamAV@0.1 over 64 KiB reads 0.83–1.30×, against 0.95–1.19×
//     at 32.
//   - memoLearn 2, 8 and 16 read ClamAV@0.1 over 256 KiB 0.96–0.98×,
//     0.83–0.85× and 1.13–1.14×, and over 64 KiB 1.59–1.76×, 1.27–1.28×
//     and 1.11–1.17×.
//
// There is no gate on a configuration's size: over 64 KiB of planted input
// a compile-cold-shaped rule set (2 000 rules, 231 partitions), most of
// whose configurations hold more than 64 awake partitions and none more
// than 128, reads 0.52× runBatchN's time through the memo; turning away
// configurations of more than 32 or 64 awake partitions read 1.01× and
// 1.05×.
const (
	memoFresh      = 2
	memoFreshSlack = 256
	memoMissCost   = 8
	memoLearn      = 8
)

// memoBypass is how many symbols the kernel runs on its own when the
// back-off rule turns the memo away, before the memo looks again.
const memoBypass = 1024

// memoBudget bounds what one run's memo allocates, in bytes. A table
// that would pass it is flushed whole and the run goes on with an empty
// one, reusing the arrays, so no input makes one run allocate more.
// A scan of Snort@0.1's 256 KiB input allocates 0.65 MB of memo (813
// configurations, 6 739 misses), the doubling of its arrays included:
// 213 KB of dense rows, 295 KB of key blocks, 63 KB of step tables and
// 81 KB of hashes, configurations and index.
const memoBudget = 4 << 20

// memoConf is one configuration: where its key starts (see keyOf), what
// it adds to a cycle's activity, less the constants runBatchN adds per
// batch, the partition visits a hit on it saves (see memoMissCost), and
// the hits on it the Result has not counted yet (see tally).
type memoConf struct {
	key, active, parts, work int32
	visits                   int64
}

// A step, from a configuration on a class, is stored as id+1 of the
// configuration it leads to, −(k+1) for sides[k], or 0 for not seen.
//
// The first memoDense configurations of a table, which take nearly all
// of its hits, keep their steps in dense rows: configuration id's step on
// class c is dense[id*nc+c]. On Snort@0.1 over 256 KiB, the first 256 of
// its 813 configurations take 98.6 % of its hits (the first 128, 94 %),
// and on PowerEN@0.1 the first 256 of 1 145 take 96.8 % (90 %). With 128
// dense rows in place of 256, the Snort@0.1 scan's memo took 612 KB in
// place of 653, and a second run over its warm table read 7.9–8.2 ns a
// symbol in place of 5.7–5.9 (best of alternating runs).
//
// The others keep theirs in steps, open-addressed by stepKey(id, c) and
// at most half full: a row per configuration would cost each hit a second
// dependent load, and a dense row each configuration nc entries.
const memoDense = 256

// memoStep is one entry of steps; an empty entry is all zeros.
type memoStep struct {
	key  uint32
	step int32
}

// stepKey packs a configuration and a class: a class is a byte (classOf).
func stepKey(id int32, c uint8) uint32 { return uint32(id)<<8 | uint32(c) }

// memoMinSteps is the first size of steps.
const memoMinSteps = 256

// memoSide is a transition that drives G-switch wires: its next
// configuration and its G1/G4 counts.
type memoSide struct{ next, g1, g4 int32 }

// memoCounts is what the memo did, for telemetry: lookups that found
// their step, lookups that ran the kernel, table flushes, and symbols the
// kernel ran without the memo (a run too short for it, or the back-off
// rule). Every symbol of a many-partition run is one of a hit, a miss or
// a bypassed symbol.
type memoCounts struct{ hits, misses, flushes, bypassed int64 }

// A step key holds an id in 24 bits. Each configuration takes at least
// its hash and its memoConf out of memoBudget, so no id the budget admits
// needs more.
var _ = [1]struct{}{}[(memoBudget/memoConfBytes)>>24]

const memoConfBytes = int(unsafe.Sizeof(uint64(0))) + int(unsafe.Sizeof(memoConf{}))

// memoKeyBlock is the least number of words in one block of keys (see
// memoBlocks).
const memoKeyBlock = 4 << 10

// memoBlocks is storage handed out in windows of fixed-size blocks, so
// that it grows without copying. A window never spans two blocks; a flush
// hands the blocks out again. A block is 1<<shift words, so that finding
// a key's block takes no division.
type memoBlocks struct {
	list       [][]uint64
	shift      uint
	cur, taken int // blocks in use, and words taken from the last
}

// take returns a window of n words and where it starts, counting from
// the first block's first word, or false when another block would take
// mm past memoBudget. n is at most a block's length.
func (b *memoBlocks) take(mm *memo, n int) ([]uint64, int, bool) {
	size := 1 << b.shift
	if b.cur == 0 || b.taken+n > size {
		if b.cur == len(b.list) {
			if mm.alloc+8*size > memoBudget {
				return nil, 0, false
			}
			mm.alloc += 8 * size
			b.list = append(b.list, make([]uint64, size))
		}
		b.cur, b.taken = b.cur+1, 0
	}
	at := b.taken
	b.taken += n
	return b.list[b.cur-1][at:b.taken:b.taken], (b.cur-1)<<b.shift + at, true
}

// memo is one run's configuration table. A configuration's id indexes
// hashes and confs; nc is the machine's class count.
//
// A key is the awake bitset, then enabled &^ always of each awake
// partition, four words each, in ascending order.
type memo struct {
	m       *Machine
	nc      int
	backOff bool

	hashes []uint64
	confs  []memoConf
	slots  []int32 // open-addressed index by hash: id+1, or 0 for empty
	dense  []int32
	steps  []memoStep
	sides  []memoSide
	keys   memoBlocks
	// nsteps counts the entries of steps, and shift takes a step key's
	// hash to steps' range.
	nsteps int
	shift  uint8

	// kb holds the key being built, sized for every partition awake.
	kb []uint64
	// alloc counts the bytes of every array the memo has made.
	alloc int
	// seated is the configuration the machine's vectors hold, or −1 when
	// they are ahead of the table (the kernel ran and nothing interned
	// the result).
	seated int32
	// n is the run's length. interned counts the configurations it
	// interned, hits its lookups that found their step, saved the
	// partition visits they saved, misses the lookups that did not, and
	// missed the visits of the configurations they started from (see
	// memoMissCost). What telemetry reads goes to the machine's
	// memoCounts.
	n, interned, hits, saved, misses, missed int64
}

// newMemo returns a memo for a run of n symbols on m, or nil when the
// run goes straight to the kernel: m's state is one partition, or the
// run is shorter than memoMinBytes.
func (m *Machine) newMemo(n int) *memo {
	if len(m.parts) == 1 || n < memoMinBytes {
		return nil
	}
	return m.memoFor(int64(n), true)
}

// memoFor is a memo that, if backOff, applies the back-off rule (see
// memoFresh) with the learning allowance of a run of n symbols.
func (m *Machine) memoFor(n int64, backOff bool) *memo {
	kb := make([]uint64, len(m.awake)+wordsPerPartition*len(m.parts))
	mm := &memo{m: m, nc: m.numClasses, backOff: backOff, seated: -1, n: n, kb: kb,
		keys: memoBlocks{shift: uint(bits.Len(uint(max(memoKeyBlock, len(kb)) - 1)))}}
	mm.sizeSteps(memoMinSteps)
	return mm
}

func (c memoCounts) plus(o memoCounts) memoCounts {
	return memoCounts{c.hits + o.hits, c.misses + o.misses, c.flushes + o.flushes, c.bypassed + o.bypassed}
}

func (c memoCounts) minus(o memoCounts) memoCounts {
	return memoCounts{c.hits - o.hits, c.misses - o.misses, c.flushes - o.flushes, c.bypassed - o.bypassed}
}

// run is runBatchN through the memo: input from the machine's current
// state (whatever happened to the vectors since the last batch: intern
// reads them and seats what it finds), leaving the machine, its position
// and its Result as runBatchN would.
func (mm *memo) run(input []byte) {
	m := mm.m
	id := mm.intern(!mm.losing(0, 0))
	classOf := &m.classOf
	pos := m.pos
	confs, dense, nc := mm.confs, mm.dense, mm.nc

	var hits, saved int64
	for i := 0; i < len(input); {
		if id < 0 {
			n := min(memoBypass, len(input)-i)
			m.pos = pos + int64(i)
			m.runBatchN(input[i : i+n])
			m.memoCounts.bypassed += int64(n)
			i += n
			id = mm.intern(!mm.losing(hits, saved))
			confs, dense = mm.confs, mm.dense
			continue
		}
		c := classOf[input[i]]
		var t int32
		if id < memoDense {
			t = dense[int(id)*nc+int(c)]
		} else {
			t = mm.stepAt(stepKey(id, c))
		}
		if t == 0 {
			if mm.losing(hits, saved) {
				mm.seat(id)
				id = -1
				continue
			}
			m.pos = pos + int64(i)
			id = mm.miss(id, c, input[i:i+1])
			confs, dense = mm.confs, mm.dense
			i++
			continue
		}
		s := &confs[id]
		hits++
		saved += int64(s.work)
		s.visits++
		if t > 0 {
			id = t - 1
		} else {
			sd := &mm.sides[-t-1]
			st := &m.res.Activity
			st.SumG1Crossings += int64(sd.g1)
			st.SumG4Crossings += int64(sd.g4)
			id = sd.next
		}
		i++
	}
	if id >= 0 {
		mm.seat(id)
	}
	m.pos = pos + int64(len(input))
	mm.hits += hits
	mm.saved += saved
	m.memoCounts.hits += hits
	mm.tally()
}

// tally adds to the Result the cycles of the hits since the last tally,
// from the visits they paid each configuration.
func (mm *memo) tally() {
	m := mm.m
	st := &m.res.Activity
	for i := range mm.confs {
		s := &mm.confs[i]
		if s.visits == 0 {
			continue
		}
		v := s.visits
		st.Cycles += v
		st.SumActiveStates += v * (int64(s.active) + m.alwaysCnt)
		st.SumActivePartitions += v * (int64(s.parts) + m.alwaysParts)
		st.MaxActiveStates = max(st.MaxActiveStates, int64(s.active)+m.alwaysCnt)
		st.MaxActivePartitions = max(st.MaxActivePartitions, int64(s.parts)+m.alwaysParts)
		s.visits = 0
	}
}

// losing applies the back-off rule (see memoFresh) to the run so far:
// mm's totals and the batch's hits and saved visits.
func (mm *memo) losing(hits, saved int64) bool {
	if !mm.backOff {
		return false
	}
	hits, saved = hits+mm.hits, saved+mm.saved
	served := hits + mm.misses
	if memoFresh*mm.interned > served+memoFreshSlack {
		return true
	}
	lost := memoMissCost*mm.misses - saved
	if lost <= 0 {
		return false
	}
	perSymbol := float64(saved+mm.missed) / float64(served)
	return float64(lost) > float64(mm.n)*perSymbol/memoLearn
}

// miss runs sym, of class c, from configuration from on the kernel,
// interns where it leads and stores the step, unless it reported. It
// returns the new configuration's id, or −1 when it did not fit the
// table.
func (mm *memo) miss(from int32, c uint8, sym []byte) int32 {
	m := mm.m
	mm.misses++
	m.memoCounts.misses++
	mm.missed += int64(mm.confs[from].work)
	mm.seat(from)
	st := &m.res.Activity
	g1, g4, matches := st.SumG1Crossings, st.SumG4Crossings, m.res.MatchCount
	m.runBatchN(sym)
	flushes := m.memoCounts.flushes
	to := mm.intern(true)
	if to < 0 || m.memoCounts.flushes != flushes || m.res.MatchCount != matches {
		return to // from is gone with the flushed table, or the step reported
	}
	step := to + 1
	if dg1, dg4 := int32(st.SumG1Crossings-g1), int32(st.SumG4Crossings-g4); dg1 != 0 || dg4 != 0 {
		if !reserve(mm, &mm.sides, 1) {
			mm.flush()
			return mm.intern(true)
		}
		mm.sides = append(mm.sides, memoSide{next: to, g1: dg1, g4: dg4})
		step = -int32(len(mm.sides))
	}
	if from < memoDense {
		mm.dense[int(from)*mm.nc+int(c)] = step
	} else if !mm.link(stepKey(from, c), step) {
		mm.flush()
		return mm.intern(true)
	}
	return to
}

// stepAt returns the step stored under step key k in steps, or 0.
func (mm *memo) stepAt(k uint32) int32 {
	mask := uint32(len(mm.steps) - 1)
	for i := k * 0x9e3779b9 >> mm.shift; ; i = (i + 1) & mask {
		e := mm.steps[i&mask]
		if e.key == k {
			return e.step // an empty entry's 0 when k is 0 and absent
		}
		if e.step == 0 {
			return 0
		}
	}
}

// link stores step under step key k in steps, doubling steps when it
// would be more than half full. It fails when the doubled table would
// take mm past memoBudget.
func (mm *memo) link(k uint32, step int32) bool {
	if 2*(mm.nsteps+1) > len(mm.steps) {
		size := 2 * len(mm.steps)
		if mm.alloc+size*int(unsafe.Sizeof(memoStep{})) > memoBudget {
			return false
		}
		old := mm.steps
		mm.sizeSteps(size)
		for _, e := range old {
			if e.step != 0 {
				mm.put(e)
			}
		}
	}
	mm.put(memoStep{k, step})
	mm.nsteps++
	return true
}

// sizeSteps gives mm an empty steps of size entries, a power of two.
func (mm *memo) sizeSteps(size int) {
	mm.alloc += size * int(unsafe.Sizeof(memoStep{}))
	mm.steps = make([]memoStep, size)
	mm.shift = uint8(32 - bits.TrailingZeros(uint(size)))
}

func (mm *memo) put(e memoStep) {
	mask := uint32(len(mm.steps) - 1)
	i := e.key * 0x9e3779b9 >> mm.shift
	for mm.steps[i].step != 0 {
		i = (i + 1) & mask
	}
	mm.steps[i] = e
}

// intern returns the id of the configuration the machine's vectors hold,
// adding it to the table if add (flushing the table first if it is full),
// and seats it. It returns −1, leaving the vectors ahead of the table, for
// a new configuration when not add (a losing run only looks its
// configurations up), or one that does not fit even an empty table.
func (mm *memo) intern(add bool) int32 {
	kb, h := mm.key()
	if mask := len(mm.slots) - 1; mask > 0 {
		for i := int(h) & mask; mm.slots[i] != 0; i = (i + 1) & mask {
			if id := mm.slots[i] - 1; mm.hashes[id] == h && slices.Equal(mm.keyOf(id), kb) {
				mm.seated = id
				return id
			}
		}
	}
	if !add {
		mm.seated = -1
		return -1
	}
	key, at, ok := mm.room(len(kb))
	if !ok {
		mm.flush()
		if key, at, ok = mm.room(len(kb)); !ok {
			mm.seated = -1
			return -1
		}
	}
	copy(key, kb)
	id := int32(len(mm.hashes))
	if id < memoDense {
		n := len(mm.dense)
		mm.dense = mm.dense[:n+mm.nc]
		clear(mm.dense[n:])
	}
	mm.interned++
	mm.hashes = append(mm.hashes, h)
	active, awake, parts := mm.count(kb)
	mm.confs = append(mm.confs, memoConf{key: int32(at), active: int32(active), parts: int32(parts), work: int32(awake + 1)})
	mm.index(id)
	mm.seated = id
	return id
}

// key builds the key of the machine's configuration and returns it and
// its hash.
func (mm *memo) key() (kb []uint64, h uint64) {
	m := mm.m
	kb = mm.kb
	n := copy(kb, m.awake)
	for wi, aw := range m.awake {
		h = (h ^ aw) * 0x9e3779b97f4a7c15
		for ; aw != 0; aw &= aw - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(aw)]
			d := (*[wordsPerPartition]uint64)(kb[n:])
			d[0], d[1], d[2], d[3] = p.enabled[0]&^p.always[0], p.enabled[1]&^p.always[1], p.enabled[2]&^p.always[2], p.enabled[3]&^p.always[3]
			h = (h ^ d[0] ^ bits.RotateLeft64(d[1], 16) ^ bits.RotateLeft64(d[2], 32) ^ bits.RotateLeft64(d[3], 48)) * 0x9e3779b97f4a7c15
			n += wordsPerPartition
		}
	}
	return kb[:n], h ^ h>>29
}

// count counts what a configuration adds to a cycle, from its key: its
// active states, awake partitions and active startless partitions.
func (mm *memo) count(key []uint64) (active, awake, parts int) {
	m := mm.m
	nw := len(m.awake)
	for wi, aw := range key[:nw] {
		awake += bits.OnesCount64(aw)
		parts += bits.OnesCount64(aw & m.startless[wi])
	}
	for _, w := range key[nw:] {
		active += bits.OnesCount64(w)
	}
	return active, awake, parts
}

// seat makes the machine's vectors hold configuration id, in one pass
// over the partitions awake in it or in the configuration they hold.
func (mm *memo) seat(id int32) {
	if mm.seated == id {
		return
	}
	m := mm.m
	key := mm.keyOf(id)
	words := key[len(m.awake):]
	for wi, was := range m.awake {
		aw := key[wi]
		for x := was &^ aw; x != 0; x &= x - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(x)]
			p.enabled = p.always
		}
		m.awake[wi] = aw
		for ; aw != 0; aw &= aw - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(aw)]
			d := (*[wordsPerPartition]uint64)(words)
			p.enabled = [wordsPerPartition]uint64{p.always[0] | d[0], p.always[1] | d[1], p.always[2] | d[2], p.always[3] | d[3]}
			words = words[wordsPerPartition:]
		}
	}
	mm.seated = id
}

// keyOf returns id's key: its awake bitset, and four words for each of
// the work−1 partitions the bitset names.
func (mm *memo) keyOf(id int32) []uint64 {
	cf := &mm.confs[id]
	at := int(cf.key)
	return mm.keys.list[at>>mm.keys.shift][at&(1<<mm.keys.shift-1):][:len(mm.m.awake)+wordsPerPartition*int(cf.work-1)]
}

// index puts id in the hash index, doubling the index when it would be
// more than half full.
func (mm *memo) index(id int32) {
	if 2*(int(id)+1) > len(mm.slots) {
		size := indexSize(len(mm.slots))
		mm.alloc += 4 * size
		mm.slots = make([]int32, size)
		for i := int32(0); i < id; i++ {
			mm.place(i)
		}
	}
	mm.place(id)
}

// indexSize is the size the hash index grows to from n slots.
func indexSize(n int) int { return max(64, 2*n) }

func (mm *memo) place(id int32) {
	mask := len(mm.slots) - 1
	i := int(mm.hashes[id]) & mask
	for mm.slots[i] != 0 {
		i = (i + 1) & mask
	}
	mm.slots[i] = id + 1
}

// room makes room for one more configuration, within the budget, and
// returns the window for its key of n words and where that starts.
func (mm *memo) room(n int) ([]uint64, int, bool) {
	if cap(mm.dense) == 0 && !reserve(mm, &mm.dense, memoDense*mm.nc) ||
		!reserve(mm, &mm.hashes, 1) || !reserve(mm, &mm.confs, 1) ||
		2*(len(mm.hashes)+1) > len(mm.slots) && mm.alloc+4*indexSize(len(mm.slots)) > memoBudget {
		return nil, 0, false
	}
	return mm.keys.take(mm, n)
}

// flush empties the table, keeping its arrays and blocks.
func (mm *memo) flush() {
	mm.tally()
	mm.m.memoCounts.flushes++
	mm.hashes, mm.confs, mm.dense, mm.sides = mm.hashes[:0], mm.confs[:0], mm.dense[:0], mm.sides[:0]
	mm.keys.cur, mm.nsteps = 0, 0
	clear(mm.slots)
	clear(mm.steps)
	mm.seated = -1
}

// reserve makes room for n more elements in *s, doubling its capacity,
// unless the new array would take mm past memoBudget.
func reserve[T any](mm *memo, s *[]T, n int) bool {
	if len(*s)+n <= cap(*s) {
		return true
	}
	var elem T
	size := int(unsafe.Sizeof(elem))
	c := max(2*cap(*s), len(*s)+n, 16)
	if mm.alloc+c*size > memoBudget {
		return false
	}
	mm.alloc += c * size
	grown := make([]T, len(*s), c)
	copy(grown, *s)
	*s = grown
	return true
}
