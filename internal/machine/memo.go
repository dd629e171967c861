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
// What a cycle adds to the Result is memoized with it, so a Result is
// bit-identical to the kernel's:
//
//   - per configuration, the cycle's active states, Σ over awake
//     partitions of popcount(enabled &^ always), and its active startless
//     partitions, popcount(awake & startless). Both depend on the
//     configuration alone because wake never names a startless partition
//     (see runBatchN for the constants added to both);
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
// straight to runBatchN. A memo starts cold with every run, and a cold
// table misses on 63 % of Snort@0.1's first kilobyte and 20 % of its
// fourth: through the memo, runs of Snort@0.1 read 1.27–1.45× runBatchN's
// time at 4 KiB, 1.15–1.28× at 8 KiB, 1.11–1.15× at 16 KiB, 0.72–1.14× at
// 32 KiB and 0.27–0.40× at 64 KiB.
const memoMinBytes = 32 << 10

// The back-off rule: a run goes to the kernel for the next memoBypass
// symbols when its memo is losing, by either of two triggers.
//
//   - Its configurations do not come back: it has interned more than one
//     for every memoFresh symbols the memo served, past the first
//     memoFreshSlack. Fermi@0.1, RandomForest@0.1, SPM@0.1 and
//     Protomata@0.1 intern one on 93–100 % of their symbols and Snort@0.1
//     on 14 % of its first kilobyte and 2 % of its fourth; without the
//     back-off rule the first two read 3.4× and 2.2× runBatchN's time
//     through the memo.
//   - Its misses have cost more than its hits saved, by more than a
//     learning allowance of 1/memoLearn of the kernel's work over the
//     whole run. Costs are in the kernel's partition visits: a hit saves
//     its configuration's awake partitions and one more for the step's
//     fixed work, and a miss, which runs the kernel's step and then
//     builds, hashes and interns a key, costs memoMissCost (about 900 ns
//     on Snort@0.1, at 27 ns a visit). A cold table pays for its first
//     kilobytes of misses over the run's later symbols, and a run with
//     too few of them does not.
//
// Each trigger is needed. In BenchmarkKernelMemo at -benchtime 16x
// (memo/runBatchN, six runs per variant, three for ClamAV), with the
// second trigger alone Fermi@0.1, SPM@0.1, RandomForest@0.1 and
// Protomata@0.1 read 1.08–1.29×, and with both 0.95–1.12×. With the
// first trigger alone they read 0.93–1.08× and Snort@0.1 over 256 KiB is
// unchanged at 0.15–0.17×, but ClamAV@0.1, whose configurations come back
// and yet miss on 23 % of its symbols, reads 1.99–2.17×, against
// 1.10–1.22× with both. The second trigger has a price: in a sweep of every
// registry set at 0.1 (two runs), PowerEN@0.1 over 64 KiB read 0.48–0.50×
// with the first trigger alone and 1.08–1.17× with both, because the
// learning allowance of so short a run is small.
//
// There is no gate on a configuration's size: over 64 KiB of planted input
// a compile-cold-shaped rule set (2 000 rules, 231 partitions), most of
// whose configurations hold more than 64 awake partitions and none more
// than 128, reads 0.52× runBatchN's time through the memo; turning away
// configurations of more than 32 or 64 awake partitions read 1.01× and
// 1.05×.
const (
	memoFresh      = 4
	memoFreshSlack = 256
	memoMissCost   = 32
	memoLearn      = 8
)

// memoBypass is how many symbols the kernel runs on its own when the
// back-off rule turns the memo away, before the memo looks again.
const memoBypass = 1024

// memoBudget bounds what one run's memo allocates, in bytes. A table
// that would pass it is flushed whole and the run goes on with an empty
// one, reusing the arrays, so no input makes one run allocate more.
// A scan of Snort@0.1's 256 KiB input allocates 2.3 MB of memo (813
// configurations, 6 739 misses), the doubling of its arrays included.
const memoBudget = 4 << 20

// memoStat is what one configuration adds to a cycle's activity, less
// the constants runBatchN adds per batch, and the partition visits a hit
// on it saves (see memoMissCost).
type memoStat struct{ active, parts, work int32 }

// memoSide is a transition that drives G-switch wires: its next
// configuration and its G1/G4 counts.
type memoSide struct{ next, g1, g4 int32 }

// memoCounts is what the memo did, for telemetry: lookups that ran the
// kernel, table flushes, and symbols the kernel ran without the memo (a
// run too short for it, or the back-off rule).
type memoCounts struct{ misses, flushes, bypassed int64 }

// memo is one run's configuration table. A configuration's id indexes
// hashes, keyEnd and stats; its transitions are next[id*nc:][:nc], 0 for
// not yet seen, id+1 for a plain step, −(k+1) for sides[k].
//
// A key is the awake bitset, then one nibble per awake partition (in
// ascending order, sixteen to a word) marking its non-zero words of
// enabled &^ always, then those words.
type memo struct {
	m       *Machine
	nc      int
	backOff bool

	hashes []uint64
	keyEnd []int32 // keys[keyEnd[id-1]:keyEnd[id]] is id's key
	stats  []memoStat
	keys   []uint64
	next   []int32
	slots  []int32 // open-addressed index by hash: id+1, or 0 for empty
	sides  []memoSide

	kb []uint64 // the key being built
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
	// memoCounts as it happens.
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
	return &memo{m: m, nc: m.numClasses, backOff: backOff, seated: -1, n: n}
}

func (c memoCounts) plus(o memoCounts) memoCounts {
	return memoCounts{c.misses + o.misses, c.flushes + o.flushes, c.bypassed + o.bypassed}
}

func (c memoCounts) minus(o memoCounts) memoCounts {
	return memoCounts{c.misses - o.misses, c.flushes - o.flushes, c.bypassed - o.bypassed}
}

// run is runBatchN through the memo: input from the machine's current
// state (whatever happened to the vectors since the last batch: intern
// reads them and seats what it finds), leaving the machine, its position
// and its Result as runBatchN would.
func (mm *memo) run(input []byte) {
	m := mm.m
	id := mm.intern(!mm.losing(0, 0))
	classOf, nc := &m.classOf, mm.nc
	pos := m.pos

	var hits, saved, sumActive, sumParts, sumG1, sumG4 int64
	maxActive, maxParts := int64(0), int64(0)
	for i := 0; i < len(input); {
		if id < 0 {
			n := min(memoBypass, len(input)-i)
			m.pos = pos + int64(i)
			m.runBatchN(input[i : i+n])
			m.memoCounts.bypassed += int64(n)
			i += n
			id = mm.intern(!mm.losing(hits, saved))
			continue
		}
		c := int(classOf[input[i]])
		t := mm.next[int(id)*nc+c]
		if t == 0 {
			if mm.losing(hits, saved) {
				mm.seat(id)
				id = -1
				continue
			}
			m.pos = pos + int64(i)
			id = mm.miss(id, c, input[i:i+1])
			i++
			continue
		}
		s := mm.stats[id]
		hits++
		saved += int64(s.work)
		sumActive += int64(s.active)
		sumParts += int64(s.parts)
		maxActive = max(maxActive, int64(s.active))
		maxParts = max(maxParts, int64(s.parts))
		if t > 0 {
			id = t - 1
		} else {
			sd := &mm.sides[-t-1]
			sumG1 += int64(sd.g1)
			sumG4 += int64(sd.g4)
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
	if hits > 0 {
		st := &m.res.Activity
		st.Cycles += hits
		st.SumActiveStates += sumActive + hits*m.alwaysCnt
		st.SumActivePartitions += sumParts + hits*m.alwaysParts
		st.SumG1Crossings += sumG1
		st.SumG4Crossings += sumG4
		st.MaxActiveStates = max(st.MaxActiveStates, maxActive+m.alwaysCnt)
		st.MaxActivePartitions = max(st.MaxActivePartitions, maxParts+m.alwaysParts)
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
// interns where it leads and stores the transition, unless the step
// reported. It returns the new configuration's id, or −1 when it did not
// fit the table.
func (mm *memo) miss(from int32, c int, sym []byte) int32 {
	m := mm.m
	mm.misses++
	m.memoCounts.misses++
	mm.missed += int64(mm.stats[from].work)
	mm.seat(from)
	st := &m.res.Activity
	g1, g4, matches := st.SumG1Crossings, st.SumG4Crossings, m.res.MatchCount
	m.runBatchN(sym)
	flushes := m.memoCounts.flushes
	to := mm.intern(true)
	if to < 0 || m.memoCounts.flushes != flushes || m.res.MatchCount != matches {
		return to // from is gone with the flushed table, or the step reported
	}
	k := int(from)*mm.nc + c
	dg1, dg4 := int32(st.SumG1Crossings-g1), int32(st.SumG4Crossings-g4)
	if dg1 == 0 && dg4 == 0 {
		mm.next[k] = to + 1
		return to
	}
	if !reserve(mm, &mm.sides, 1) {
		mm.flush()
		return mm.intern(true)
	}
	mm.sides = append(mm.sides, memoSide{next: to, g1: dg1, g4: dg4})
	mm.next[k] = -int32(len(mm.sides))
	return to
}

// intern returns the id of the configuration the machine's vectors hold,
// adding it to the table if add (flushing the table first if it is full),
// and seats it. It returns −1, leaving the vectors ahead of the table, for
// a new configuration when not add (a losing run only looks its
// configurations up), or one that does not fit even an empty table.
func (mm *memo) intern(add bool) int32 {
	active, awake, parts := mm.key()
	kb := mm.kb
	h := hashKey(kb)
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
	if !mm.room(len(kb)) {
		mm.flush()
		if !mm.room(len(kb)) {
			mm.seated = -1
			return -1
		}
	}
	id := int32(len(mm.hashes))
	mm.interned++
	mm.hashes = append(mm.hashes, h)
	mm.keys = append(mm.keys, kb...)
	mm.keyEnd = append(mm.keyEnd, int32(len(mm.keys)))
	mm.stats = append(mm.stats, memoStat{int32(active), int32(parts), int32(awake + 1)})
	n := len(mm.next)
	mm.next = mm.next[:n+mm.nc]
	clear(mm.next[n:])
	mm.index(id)
	mm.seated = id
	return id
}

// key builds the key of the machine's configuration in kb, and counts
// its active states, awake partitions and active startless partitions.
func (mm *memo) key() (active, awake, parts int) {
	m := mm.m
	n := 0
	for wi, aw := range m.awake {
		n += bits.OnesCount64(aw)
		parts += bits.OnesCount64(aw & m.startless[wi])
	}
	nw, nib := len(m.awake), (n+15)/16
	kb := append(mm.kb[:0], m.awake...)
	for range nib {
		kb = append(kb, 0)
	}
	j := 0
	for wi, aw := range m.awake {
		for ; aw != 0; aw &= aw - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(aw)]
			var mask uint64
			for w := range p.enabled {
				if d := p.enabled[w] &^ p.always[w]; d != 0 {
					mask |= 1 << w
					kb = append(kb, d)
					active += bits.OnesCount64(d)
				}
			}
			kb[nw+(j>>4)] |= mask << (4 * (j & 15))
			j++
		}
	}
	mm.kb = kb
	return active, n, parts
}

// seat makes the machine's vectors hold configuration id.
func (mm *memo) seat(id int32) {
	if mm.seated == id {
		return
	}
	m := mm.m
	for wi, aw := range m.awake {
		for ; aw != 0; aw &= aw - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(aw)]
			p.enabled = p.always
		}
	}
	key := mm.keyOf(id)
	nw := copy(m.awake, key)
	n := 0
	for _, aw := range m.awake {
		n += bits.OnesCount64(aw)
	}
	nib, words := key[nw:], key[nw+(n+15)/16:]
	j := 0
	for wi, aw := range m.awake {
		for ; aw != 0; aw &= aw - 1 {
			p := &m.parts[wi<<6|bits.TrailingZeros64(aw)]
			mask := nib[j>>4] >> (4 * (j & 15))
			for w := range p.enabled {
				if mask&(1<<w) != 0 {
					p.enabled[w] = words[0] | p.always[w]
					words = words[1:]
				}
			}
			j++
		}
	}
	mm.seated = id
}

func (mm *memo) keyOf(id int32) []uint64 {
	start := int32(0)
	if id > 0 {
		start = mm.keyEnd[id-1]
	}
	return mm.keys[start:mm.keyEnd[id]]
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

// room makes room for one more configuration with a key of n words,
// within the budget.
func (mm *memo) room(n int) bool {
	c := len(mm.hashes) + 1
	return reserve(mm, &mm.hashes, 1) && reserve(mm, &mm.keyEnd, 1) &&
		reserve(mm, &mm.stats, 1) && reserve(mm, &mm.keys, n) &&
		reserve(mm, &mm.next, mm.nc) && (2*c <= len(mm.slots) || mm.alloc+4*indexSize(len(mm.slots)) <= memoBudget)
}

// flush empties the table, keeping its arrays.
func (mm *memo) flush() {
	mm.m.memoCounts.flushes++
	mm.hashes, mm.keyEnd, mm.stats = mm.hashes[:0], mm.keyEnd[:0], mm.stats[:0]
	mm.keys, mm.next = mm.keys[:0], mm.next[:0]
	mm.sides = mm.sides[:0]
	clear(mm.slots)
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

func hashKey(k []uint64) uint64 {
	h := uint64(len(k))
	for _, w := range k {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}
