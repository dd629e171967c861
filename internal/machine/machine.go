// Package machine is the cycle-level functional simulator of a mapped
// Cache Automaton (the role VASim plays in the paper's methodology, §4:
// "The simulator takes as input the NFA partitions produced by METIS and
// simulates each input cycle by cycle. After processing the input stream,
// we use the per-cycle statistics on number of active states in each array
// to derive energy statistics").
//
// Each partition is simulated exactly as the hardware operates (§2.2):
// the input symbol addresses a row of the partition's SRAM arrays, giving a
// 256-bit match vector; the AND with the active-state vector selects the
// matching states; their local-switch rows produce next-cycle activations
// within the partition, and their programmed G-switch cross-points activate
// states in other partitions. Reporting states that match push an entry
// into the 64-deep output buffer (§2.8), which raises an interrupt when
// full. Per-cycle counts of active partitions and G-switch crossings feed
// the arch energy model.
//
// The simulator mirrors the SRAM's word-parallel nature in its data
// layout, and stores only what was programmed. Symbols that every state
// accepts alike form one class (classOf), so a partition's 256×256-bit
// array is its C distinct four-word rows, rows[classOf[sym]] standing for
// the modelled row sym; the local switch keeps a row only for the slots
// that read one, found by rank. The modelled SRAM, and the energy model,
// still have 256 rows. The active/match vectors are fixed 4-word arrays,
// and the hot loop is raw word arithmetic — AND/OR over words, a shift
// for the local switch's successor chains, popcount for the activity
// counters and ranks, and TrailingZeros64 to walk the few matched slots
// that need more. Nothing on the symbol path allocates or calls through
// an interface.
//
// The hardware clock-gates a partition with nothing to do (§5.3); the host
// goes one step further and does not visit a partition that holds nothing
// but its always-on start states when the symbol matches none of them.
// What such a partition contributes to the per-cycle statistics is a
// constant, added in closed form (see runBatchN), so the energy model sees
// every powered partition and the host simulates only the busy ones.
//
// A run of many partitions long enough to come back to its configurations
// goes through a configuration memo (memo.go): a table built lazily over
// the run, from a configuration's id and the symbol's class to the
// configuration the step leads to and what the cycle adds to the Result.
// A miss runs one symbol of runBatchN and a step that reports is never
// stored, so the kernel stays the one definition of a step and makes every
// report, and every Result is the kernel's bit for bit. The table lives
// for one run and is garbage when the run returns.
package machine

import (
	"fmt"
	"math/bits"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/telemetry"
)

// OutputBufferEntries is the size of the output event buffer in the CBOX
// (§2.8: "An output buffer has 64 entries").
const OutputBufferEntries = 64

// cacheLineBytes is the refill granularity of the input FIFO.
const cacheLineBytes = 64

// wordsPerPartition is the width of one partition's bit vectors in 64-bit
// words: 256 STE slots = 4 words. The hot loop relies on this being a
// small compile-time constant.
const wordsPerPartition = arch.PartitionSTEs / 64

// Match is one report event. Matches are delivered in one order whatever
// the machine's history — chunking, sharding, suspend/resume: by Offset,
// then by the reporting state's partition, then by its slot.
type Match struct {
	// Offset is the input offset of the symbol that triggered the report.
	Offset int64
	// Code is the report code of the matching state.
	Code int32
	// State is the matching state's ID.
	State nfa.StateID
}

// Options configure a simulation.
type Options struct {
	// CollectMatches stores every match in Result.Matches. Disable for
	// long streams where only counts and activity statistics matter.
	CollectMatches bool
}

// Observer is the machine's run-telemetry hook: one call wherever a
// Result is handed out, saying what that Result says (see observe);
// nothing is reported from inside the symbol loops.
// telemetry.MachineCollector satisfies it.
type Observer interface {
	ObserveRun(telemetry.RunSummary)
}

// ActivityStats accumulates the per-cycle statistics the energy model
// consumes.
type ActivityStats struct {
	// Cycles is the number of symbols processed.
	Cycles int64
	// SumActiveStates totals the enabled-state count over cycles,
	// including the always-enabled all-input start states.
	SumActiveStates int64
	// SumDynamicStates totals enabled states EXCLUDING the always-enabled
	// start states — the Table-1 "Avg. Active States" metric, which counts
	// dynamically activated states the way VASim does.
	SumDynamicStates int64
	// SumActivePartitions totals partitions with ≥1 enabled state (each
	// costs an array + local-switch access per cycle, §5.3).
	SumActivePartitions int64
	// SumG1Crossings / SumG4Crossings total active G-switch source signals
	// per cycle (a matched state with ≥1 target behind G-Switch-1/-4
	// drives one wire into that switch; chained-G4 edges count two hops).
	SumG1Crossings int64
	SumG4Crossings int64
	// MaxActiveStates and MaxActivePartitions are per-cycle peaks.
	MaxActiveStates, MaxActivePartitions int64
}

// merge folds o's totals into s (peaks take the max). Used to combine the
// per-shard statistics of a parallel run; on exact shard handoffs the sums
// equal the sequential run's bit for bit. SumDynamicStates is derived from
// the merged sums (see derive), not merged.
func (s *ActivityStats) merge(o *ActivityStats) {
	s.Cycles += o.Cycles
	s.SumActiveStates += o.SumActiveStates
	s.SumActivePartitions += o.SumActivePartitions
	s.SumG1Crossings += o.SumG1Crossings
	s.SumG4Crossings += o.SumG4Crossings
	s.MaxActiveStates = max(s.MaxActiveStates, o.MaxActiveStates)
	s.MaxActivePartitions = max(s.MaxActivePartitions, o.MaxActivePartitions)
}

// AvgActiveStates returns the Table-1 activity metric (dynamically
// activated states per cycle, excluding always-enabled starts).
func (s ActivityStats) AvgActiveStates() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.SumDynamicStates) / float64(s.Cycles)
}

// AvgActivePartitions returns the mean number of array accesses per symbol.
func (s ActivityStats) AvgActivePartitions() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.SumActivePartitions) / float64(s.Cycles)
}

// AvgActivity converts the totals to per-symbol activity for the arch
// energy model.
func (s ActivityStats) AvgActivity() arch.ActivityCounts {
	if s.Cycles == 0 {
		return arch.ActivityCounts{}
	}
	c := float64(s.Cycles)
	return arch.ActivityCounts{
		ActivePartitions: float64(s.SumActivePartitions) / c,
		G1Crossings:      float64(s.SumG1Crossings) / c,
		G4Crossings:      float64(s.SumG4Crossings) / c,
	}
}

// Result summarizes a run.
type Result struct {
	// Matches holds collected report events (when Options.CollectMatches),
	// ordered by (offset, partition, slot); see Match.
	Matches []Match
	// MatchCount counts all report events regardless of collection.
	MatchCount int64
	// OutputBufferInterrupts counts CPU interrupts raised by output-buffer
	// fills (§2.8).
	OutputBufferInterrupts int64
	// FIFORefills counts cache-line reads refilling the input FIFO (§2.8).
	// It follows from the absolute stream position, so feeding a stream
	// in unaligned chunks counts each 64-byte line exactly once.
	FIFORefills int64
	// OutputBufferPeak is the high-water mark of buffered report entries
	// (≤ OutputBufferEntries; the buffer drains on interrupt).
	OutputBufferPeak int64
	// Activity is the per-cycle statistics accumulation.
	Activity ActivityStats
}

// crossTarget is one programmed G-switch cross-point from a source slot.
type crossTarget struct {
	part int32
	slot int32
}

// partition is the runtime state of one 256-STE partition, laid out as
// flat word arrays so the symbol loop is pure 64-bit arithmetic. The
// fields a visit reads come first, in the order it reads them.
type partition struct {
	// rows is the SRAM content by symbol class: rows[Machine.classOf[sym]]
	// is the 256-bit match vector the modelled array's row sym holds (one
	// bit per slot). Symbols of one class address equal rows, so the host
	// stores each distinct row once, cut from the machine's one slab.
	rows [][wordsPerPartition]uint64
	// enabled is the active-state vector; always marks all-input start
	// slots, OR-ed into enabled at every commit, so always ⊆ enabled in
	// every architectural state. A partition with enabled == always is
	// asleep (see Machine.awake).
	enabled, always [wordsPerPartition]uint64
	// shiftM/selfM/otherM are the local switch by where a slot's edges
	// go: slot s+1 (the concatenation chains that are nearly all of a
	// compiled regex), s itself (repetition self-loops), anywhere else.
	// The first two are a shift (with carries between the words) and a
	// mask over the whole match vector; only otherM slots walk localRows.
	shiftM, selfM [wordsPerPartition]uint64
	// slowM = reports | otherM | hasCross: the matched slots that need
	// per-slot work, tested with one AND per word (OR-ed together per
	// visit instead, the ledger's scan-dense shape read 8 % slower).
	// reports marks reporting slots, hasCross slots with G-switch
	// cross-points.
	slowM, otherM, reports, hasCross [wordsPerPartition]uint64
	// next accumulates the cycle's cross-activations from other
	// partitions, merged into enabled when the cycle ends.
	next [wordsPerPartition]uint64
	// startOfData marks slots enabled only for the first symbol.
	startOfData [wordsPerPartition]uint64
	// localRows is the local-switch content of the otherM slots, the only
	// ones that read it, by rank: the row of the k-th otherM slot (in slot
	// order) is localRows[k], its within-partition fan-out vector. A
	// partition's rows are its window of the machine's one slab.
	localRows [][wordsPerPartition]uint64
	// crossStart/crossTargets hold the G-switch cross-points of the k-th
	// hasCross slot in CSR form: crossTargets[crossStart[k]:crossStart[k+1]].
	// crossTargets is the machine's one slab of them, shared by every
	// partition; crossStart is the partition's window of one index slab.
	crossStart   []int32
	crossTargets []crossTarget
	// crossG1/crossG4 are the k-th hasCross slot's precomputed G-switch
	// source-signal contributions when it matches (G1: 1 if any
	// within-way target; G4: 2 if any chained hop, else 1 if any
	// cross-way target).
	crossG1, crossG4 []int8
	// Report metadata is read from the placement (Machine.pl): report
	// finds a reporting slot's state in its slot table and the report
	// code on the state.
}

// Machine simulates one mapped automaton.
type Machine struct {
	pl    *mapper.Placement
	opts  Options
	parts []partition
	// programmed marks, per partition, the slots that hold a state. Starts,
	// local rows and cross targets only ever name such slots, so no run can
	// enable a bit outside it — and Restore admits no snapshot that does.
	// It is kept out of partition, which the symbol loops stride over (in
	// it, the ledger's 231-partition compile-cold scan read 5 % slower).
	programmed [][wordsPerPartition]uint64
	// classOf maps a symbol to its class: two symbols share one iff every
	// state accepts both or neither. Classes are numbered by first symbol;
	// numClasses counts them.
	classOf    [256]uint8
	numClasses int
	// awake and wake are bitsets over partitions, and their union is what
	// a symbol visits. awake: bit pi ⇔ parts[pi].enabled != always — some
	// state beyond the always-on starts is enabled. wake[c] (static, laid
	// out wake[c*len(awake)+w]): bit pi ⇔ an all-input start of pi accepts
	// the symbols of class c. Any other partition is asleep and sym
	// matches nothing in it: it reports nothing, drives no wire and
	// commits to the vector it already holds, so the host skips it, and what it adds to the activity
	// statistics is a constant — its always-on states, and itself if it has
	// any (alwaysCnt, alwaysParts; startless marks the partitions that have
	// none).
	awake, wake, startless []uint64
	// crossed lists the partitions cross-activated in the current cycle.
	crossed []int32
	pos     int64
	// basePos/baseBuf are the stream position and output-buffer occupancy
	// at the last Reset or Restore — where res started accumulating, and
	// with it all derive needs. alwaysCnt counts the all-input start states,
	// alwaysParts the partitions holding one.
	basePos                int64
	baseBuf                int
	alwaysCnt, alwaysParts int64
	res                    Result
	// oneWord marks a machine whose whole architectural state fits one
	// 64-bit word (single partition, every programmed slot below 64): the
	// symbol loop then touches word 0 of the rows only (runBatchWord),
	// and reads it from word0, the 2 KiB table of that word by symbol, in
	// place of classOf and the row (on the ledger's scan-sparse, the
	// one dependent load more read scan_mb_per_s about 9 % lower, in 19
	// of 20 alternating pairs).
	oneWord bool
	word0   *[256]uint64
	// memoCounts totals what the memos of this machine's runs did.
	memoCounts memoCounts

	// Observer, when non-nil, hears about every RunContext and RunBatch
	// of this machine. A Pool sets it on the machines it builds.
	Observer Observer
}

// New builds a machine from a placement (which it verifies first; the
// check is memoized per placement, so growing a pool re-verifies nothing).
func New(pl *mapper.Placement, opts Options) (*Machine, error) {
	if err := pl.VerifyOnce(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{pl: pl, opts: opts}
	n := pl.NFA
	m.numClasses = nfa.AlphabetClasses(n, &m.classOf)
	nc := m.numClasses
	m.parts = make([]partition, len(pl.Partitions))
	m.programmed = make([][wordsPerPartition]uint64, len(pl.Partitions))
	nw := (len(m.parts) + 63) / 64
	sets := make([]uint64, (2+nc)*nw)
	m.awake, m.startless, m.wake = sets[:nw:nw], sets[nw:2*nw:2*nw], sets[2*nw:]
	// Slab the per-partition arrays: one large allocation per kind instead
	// of several small ones per partition. Construction is on the
	// cold-start path (pool misses, cached preload).
	rowSlab := make([][wordsPerPartition]uint64, len(pl.Partitions)*nc)
	for i := range m.parts {
		m.parts[i].rows = rowSlab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	// Program SRAM rows, start/report masks, local-switch masks and wake
	// sets.
	maxSlot := 0
	for s := range n.States {
		st := &n.States[s]
		pi, slot := int(pl.PartitionOf[s]), int(pl.SlotOf[s])
		maxSlot = max(maxSlot, slot)
		p := &m.parts[pi]
		wi, bit := slot>>6, uint64(1)<<(slot&63)
		m.programmed[pi][wi] |= bit
		for w4 := 0; w4 < 4; w4++ { // inline Class.Symbols: no per-state slice
			for word := st.Class[w4]; word != 0; word &= word - 1 {
				p.rows[m.classOf[w4<<6|bits.TrailingZeros64(word)]][wi] |= bit
			}
		}
		switch st.Start {
		case nfa.AllInput:
			p.always[wi] |= bit
			for w4 := 0; w4 < 4; w4++ {
				for word := st.Class[w4]; word != 0; word &= word - 1 {
					m.wake[int(m.classOf[w4<<6|bits.TrailingZeros64(word)])*nw+pi>>6] |= 1 << (pi & 63)
				}
			}
		case nfa.StartOfData:
			p.startOfData[wi] |= bit
		}
		if st.Report {
			p.reports[wi] |= bit
		}
		for _, v := range st.Out {
			if pl.PartitionOf[v] == int32(pi) {
				switch int(pl.SlotOf[v]) {
				case slot + 1:
					p.shiftM[wi] |= bit
				case slot:
					p.selfM[wi] |= bit
				default:
					p.otherM[wi] |= bit
				}
			}
		}
	}
	// Mark the G-switch sources, then cut the rank-indexed slabs: a local
	// row per otherM slot and a cross-point window per hasCross slot, each
	// partition's run of them in slot order after the previous partition's.
	for i := range pl.Cross {
		ce := &pl.Cross[i]
		m.parts[ce.SrcPartition].hasCross[ce.SrcSlot>>6] |= 1 << (ce.SrcSlot & 63)
	}
	var nLocal, nCross int
	for i := range m.parts {
		p := &m.parts[i]
		nLocal += popcount(&p.otherM)
		nCross += popcount(&p.hasCross)
	}
	localSlab := make([][wordsPerPartition]uint64, nLocal)
	start := make([]int32, nCross+1)
	signals := make([]int8, 2*nCross)
	nLocal, nCross = 0, 0
	for i := range m.parts {
		p := &m.parts[i]
		nl, nx := popcount(&p.otherM), popcount(&p.hasCross)
		p.localRows = localSlab[nLocal : nLocal+nl : nLocal+nl]
		p.crossStart = start[nCross : nCross+nx+1 : nCross+nx+1]
		p.crossG1 = signals[2*nCross : 2*nCross+nx : 2*nCross+nx]
		p.crossG4 = signals[2*nCross+nx : 2*(nCross+nx) : 2*(nCross+nx)]
		nLocal, nCross = nLocal+nl, nCross+nx
		// Program the local rows in slot order, reading each otherM
		// slot's state back from the placement's slot table.
		slots := pl.Partitions[i].Slots
		r := 0
		for w, om := range p.otherM {
			for ; om != 0; om &= om - 1 {
				lr := &p.localRows[r]
				r++
				for _, v := range n.States[slots[w<<6|bits.TrailingZeros64(om)]].Out {
					if pl.PartitionOf[v] == int32(i) {
						dst := pl.SlotOf[v]
						lr[dst>>6] |= 1 << (dst & 63)
					}
				}
			}
		}
	}
	// Index the cross-points by source rank in CSR form with one stable
	// counting sort over pl.Cross: count per source into start (through
	// the partition's window of it), sum to each source's end, then place
	// every cross-point by walking pl.Cross backwards and decrementing its
	// source's entry, which leaves the entry at the source's first target.
	// A partition's window is one entry longer than its sources (the next
	// partition's first entry is its end). Ranks ascend by (partition,
	// slot), so the targets lie in the order the slot-indexed table kept.
	// The per-source G1/G4 signal contributions are set in the counting
	// pass.
	for i := range pl.Cross {
		ce := &pl.Cross[i]
		p := &m.parts[ce.SrcPartition]
		k := crossRank(p, ce.SrcSlot)
		p.crossStart[k]++
		switch ce.Via {
		case mapper.ViaG1:
			p.crossG1[k] = 1
		case mapper.ViaG4:
			p.crossG4[k] = max(p.crossG4[k], 1)
		case mapper.ViaChained:
			p.crossG4[k] = 2
		}
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	targets := make([]crossTarget, len(pl.Cross))
	for i := len(pl.Cross) - 1; i >= 0; i-- {
		ce := &pl.Cross[i]
		p := &m.parts[ce.SrcPartition]
		k := crossRank(p, ce.SrcSlot)
		p.crossStart[k]--
		targets[p.crossStart[k]] = crossTarget{part: int32(ce.DstPartition), slot: int32(ce.DstSlot)}
	}
	for i := range m.parts {
		p := &m.parts[i]
		p.crossTargets = targets
		for w := range p.slowM {
			p.slowM[w] = p.reports[w] | p.otherM[w] | p.hasCross[w]
		}
		starts := popcount(&p.always)
		m.alwaysCnt += int64(starts)
		if starts > 0 {
			m.alwaysParts++
		} else {
			m.startless[i>>6] |= 1 << (i & 63)
		}
	}
	if m.oneWord = len(m.parts) == 1 && maxSlot < 64; m.oneWord {
		m.word0 = new([256]uint64)
		for sym, c := range m.classOf {
			m.word0[sym] = m.parts[0].rows[c][0]
		}
	}
	m.Reset()
	return m, nil
}

// popcount counts the bits of a partition-wide vector.
func popcount(v *[wordsPerPartition]uint64) int {
	return bits.OnesCount64(v[0]) + bits.OnesCount64(v[1]) + bits.OnesCount64(v[2]) + bits.OnesCount64(v[3])
}

// crossRank is slot's rank among p's G-switch sources: the hasCross
// bits below it.
func crossRank(p *partition, slot int) int {
	w := slot >> 6
	r := bits.OnesCount64(p.hasCross[w] & (1<<(slot&63) - 1))
	for _, x := range p.hasCross[:w] {
		r += bits.OnesCount64(x)
	}
	return r
}

// setActive rebuilds awake from the enabled vectors: after Reset and
// Restore, and behind the one-partition loops, which do not keep it.
func (m *Machine) setActive() {
	clear(m.awake)
	for i := range m.parts {
		if p := &m.parts[i]; p.enabled != p.always {
			m.awake[i>>6] |= 1 << (i & 63)
		}
	}
}

// Reset rewinds the machine to input offset 0 (§2.10's configuration step
// leaves exactly this state: start states enabled).
func (m *Machine) Reset() {
	m.pos, m.basePos, m.baseBuf = 0, 0, 0
	m.res = Result{}
	for i := range m.parts {
		p := &m.parts[i]
		for w := 0; w < wordsPerPartition; w++ {
			p.enabled[w] = p.always[w] | p.startOfData[w]
			p.next[w] = 0
		}
	}
	m.setActive()
}

// Pos returns the offset of the next symbol.
func (m *Machine) Pos() int64 { return m.pos }

// NumPartitions returns the mapped partition count.
func (m *Machine) NumPartitions() int { return len(m.parts) }

// NumClasses returns the number of symbol classes: the distinct rows the
// host stores per partition in place of the modelled array's 256.
func (m *Machine) NumClasses() int { return m.numClasses }

// The hot loop is hand-unrolled over the partition's four words; this
// compile-time assertion trips if the partition geometry ever changes.
var _ = [1]struct{}{}[wordsPerPartition-4]

// runBatchN is the symbol hot loop: one iteration per input byte with all
// loop-invariant state hoisted into locals, the four-word vector sweeps
// unrolled into registers, and the activity sums accumulated locally and
// written back once per batch. It performs no allocations (crossed is a
// reused field) and no interface calls.
//
// A symbol visits the partitions of awake ∪ wake[sym], in ascending
// order — which makes a cycle's matches come out by (partition, slot)
// whatever the machine's history. One pass per visit: match, local
// fan-out into registers, commit enabled' = fan-out ∪ always, and the
// awake bit kept iff enabled' ≠ always. Cross-activations land in the
// target's next and are merged when the cycle ends, so a partition
// visited later in the same cycle still reads this cycle's vector.
//
// The activity of the partitions not visited is closed-form. always ⊆
// enabled after every commit, so each cycle
//
//	active states     = alwaysCnt   + Σ visited popcount(enabled &^ always)
//	active partitions = alwaysParts + #visited holding no all-input start
//
// exactly: an unvisited partition has enabled == always, and a visited
// startless one is awake, so has an enabled state. The loop carries the
// right-hand terms and the constants are added per batch.
func (m *Machine) runBatchN(input []byte) {
	parts := m.parts
	awake, startless := m.awake, m.startless
	nw := len(awake)
	crossed := m.crossed[:0]
	classOf := &m.classOf
	pos := m.pos

	st := &m.res.Activity
	var sumActive, sumParts, sumG1, sumG4 int64
	maxActive, maxParts := st.MaxActiveStates-m.alwaysCnt, st.MaxActivePartitions-m.alwaysParts

	for _, sym := range input {
		var activeStates, activeParts, cycG1, cycG4 int64
		c := int(classOf[sym])
		wake := m.wake[c*nw:][:nw]

		for wi, aw := range awake {
			visit := aw | wake[wi]
			activeParts += int64(bits.OnesCount64(visit & startless[wi]))
			for ; visit != 0; visit &= visit - 1 {
				pi := wi<<6 | bits.TrailingZeros64(visit)
				p := &parts[pi]
				row := &p.rows[c]
				e0, e1, e2, e3 := p.enabled[0], p.enabled[1], p.enabled[2], p.enabled[3]
				a0, a1, a2, a3 := p.always[0], p.always[1], p.always[2], p.always[3]
				activeStates += int64(bits.OnesCount64(e0&^a0) + bits.OnesCount64(e1&^a1) +
					bits.OnesCount64(e2&^a2) + bits.OnesCount64(e3&^a3))
				m0, m1, m2, m3 := row[0]&e0, row[1]&e1, row[2]&e2, row[3]&e3
				n0, n1, n2, n3 := a0, a1, a2, a3
				if m0|m1|m2|m3 != 0 {
					s0, s1, s2, s3 := m0&p.shiftM[0], m1&p.shiftM[1], m2&p.shiftM[2], m3&p.shiftM[3]
					n0 |= s0<<1 | m0&p.selfM[0]
					n1 |= s1<<1 | s0>>63 | m1&p.selfM[1]
					n2 |= s2<<1 | s1>>63 | m2&p.selfM[2]
					n3 |= s3<<1 | s2>>63 | m3&p.selfM[3]
					if m0&p.slowM[0]|m1&p.slowM[1]|m2&p.slowM[2]|m3&p.slowM[3] != 0 {
						if m0&p.reports[0]|m1&p.reports[1]|m2&p.reports[2]|m3&p.reports[3] != 0 {
							m.pos = pos
							m.report(pi, [wordsPerPartition]uint64{m0, m1, m2, m3})
						}
						// A matched otherM or hasCross slot finds its rows by
						// rank: the mask's bits in the words below (lr, cr) and
						// below it in its own word.
						lr, cr := 0, 0
						for w, mw := range [wordsPerPartition]uint64{m0, m1, m2, m3} {
							om, hc := p.otherM[w], p.hasCross[w]
							for x := mw & om; x != 0; x &= x - 1 {
								row := &p.localRows[lr+bits.OnesCount64(om&(x&-x-1))]
								n0 |= row[0]
								n1 |= row[1]
								n2 |= row[2]
								n3 |= row[3]
							}
							for x := mw & hc; x != 0; x &= x - 1 {
								k := cr + bits.OnesCount64(hc&(x&-x-1))
								cycG1 += int64(p.crossG1[k])
								cycG4 += int64(p.crossG4[k])
								for _, ct := range p.crossTargets[p.crossStart[k]:p.crossStart[k+1]] {
									nx := &parts[ct.part].next
									if nx[0]|nx[1]|nx[2]|nx[3] == 0 {
										crossed = append(crossed, ct.part)
									}
									nx[ct.slot>>6] |= 1 << uint(ct.slot&63)
								}
							}
							lr += bits.OnesCount64(om)
							cr += bits.OnesCount64(hc)
						}
					}
				}
				p.enabled[0], p.enabled[1], p.enabled[2], p.enabled[3] = n0, n1, n2, n3
				bit := uint64(1) << (pi & 63)
				if n0&^a0|n1&^a1|n2&^a2|n3&^a3 != 0 {
					aw |= bit
				} else {
					aw &^= bit
				}
			}
			awake[wi] = aw
		}

		// Merge the cycle's cross-activations. A target already visited
		// holds its committed vector, one not visited its unchanged one;
		// either way next is OR-ed in and may wake it.
		for _, pi := range crossed {
			p := &parts[pi]
			for w := range p.next {
				p.enabled[w] |= p.next[w]
				p.next[w] = 0
			}
			if p.enabled != p.always {
				awake[pi>>6] |= 1 << (pi & 63)
			}
		}
		crossed = crossed[:0]

		sumG1 += cycG1
		sumG4 += cycG4
		sumActive += activeStates
		sumParts += activeParts
		maxActive = max(maxActive, activeStates)
		maxParts = max(maxParts, activeParts)
		pos++
	}

	m.pos = pos
	m.crossed = crossed
	cycles := int64(len(input))
	st.Cycles += cycles
	st.SumActiveStates += sumActive + cycles*m.alwaysCnt
	st.SumActivePartitions += sumParts + cycles*m.alwaysParts
	st.SumG1Crossings += sumG1
	st.SumG4Crossings += sumG4
	st.MaxActiveStates = maxActive + m.alwaysCnt
	st.MaxActivePartitions = maxParts + m.alwaysParts
}

// runBatch1 is the single-partition specialization of the hot loop. A
// single-partition machine has no G-switch crossings (Verify rejects
// same-partition cross edges), so the entire architectural state — the
// four enabled words — stays in registers across the whole batch, and
// the commit phase is register renaming instead of loads and stores.
func (m *Machine) runBatch1(input []byte) {
	p := &m.parts[0]
	pos := m.pos

	st := &m.res.Activity
	var sumActive, sumParts int64
	maxActive, maxParts := st.MaxActiveStates, st.MaxActivePartitions

	e0, e1, e2, e3 := p.enabled[0], p.enabled[1], p.enabled[2], p.enabled[3]
	a0, a1, a2, a3 := p.always[0], p.always[1], p.always[2], p.always[3]
	r0, r1, r2, r3 := p.reports[0], p.reports[1], p.reports[2], p.reports[3]
	classOf := &m.classOf

	for i, sym := range input {
		if e0|e1|e2|e3 == 0 {
			// A partition without always-on starts that goes quiet is dead
			// for the rest of the stream: no matches, zero activity.
			pos += int64(len(input) - i)
			break
		}
		row := &p.rows[classOf[sym]]
		enCnt := int64(bits.OnesCount64(e0) + bits.OnesCount64(e1) +
			bits.OnesCount64(e2) + bits.OnesCount64(e3))
		m0, m1, m2, m3 := row[0]&e0, row[1]&e1, row[2]&e2, row[3]&e3
		sumActive += enCnt
		sumParts++
		if enCnt > maxActive {
			maxActive = enCnt
		}
		var n0, n1, n2, n3 uint64
		if m0|m1|m2|m3 != 0 {
			if m0&r0|m1&r1|m2&r2|m3&r3 != 0 {
				m.pos = pos
				m.report(0, [wordsPerPartition]uint64{m0, m1, m2, m3})
			}
			s0, s1, s2, s3 := m0&p.shiftM[0], m1&p.shiftM[1], m2&p.shiftM[2], m3&p.shiftM[3]
			n0 = s0<<1 | m0&p.selfM[0]
			n1 = s1<<1 | s0>>63 | m1&p.selfM[1]
			n2 = s2<<1 | s1>>63 | m2&p.selfM[2]
			n3 = s3<<1 | s2>>63 | m3&p.selfM[3]
			lr := 0 // rank of word w's first otherM slot, as in runBatchN
			for w, mw := range [wordsPerPartition]uint64{m0, m1, m2, m3} {
				om := p.otherM[w]
				for x := mw & om; x != 0; x &= x - 1 {
					row := &p.localRows[lr+bits.OnesCount64(om&(x&-x-1))]
					n0 |= row[0]
					n1 |= row[1]
					n2 |= row[2]
					n3 |= row[3]
				}
				lr += bits.OnesCount64(om)
			}
		}
		e0, e1, e2, e3 = n0|a0, n1|a1, n2|a2, n3|a3
		pos++
	}

	if maxParts < 1 && sumParts > 0 {
		maxParts = 1
	}
	p.enabled[0], p.enabled[1], p.enabled[2], p.enabled[3] = e0, e1, e2, e3
	m.pos = pos
	st.Cycles += int64(len(input))
	st.SumActiveStates += sumActive
	st.SumActivePartitions += sumParts
	st.MaxActiveStates = maxActive
	st.MaxActivePartitions = maxParts
	m.setActive()
}

// runBatchWord is runBatch1 for a machine whose state fits word 0: one
// enabled word in a register, one word of the row read per symbol, and
// the local switch's shift and masks (see partition.shiftM) one word wide.
// The host pays per 64-bit word it sweeps, not per partition it models.
func (m *Machine) runBatchWord(input []byte) {
	p := &m.parts[0]
	pos := m.pos

	st := &m.res.Activity
	var sumActive int64
	maxActive := st.MaxActiveStates

	e, a0 := p.enabled[0], p.always[0]
	shiftM, selfM, otherM := p.shiftM[0], p.selfM[0], p.otherM[0]
	rareM := p.reports[0] | otherM
	word0 := m.word0
	live := len(input)

	for i, sym := range input {
		if e == 0 {
			// Dead for the rest of the stream, as in runBatch1.
			live = i
			break
		}
		enCnt := int64(bits.OnesCount64(e))
		sumActive += enCnt
		if enCnt > maxActive {
			maxActive = enCnt
		}
		mm := word0[sym] & e
		nx := (mm&shiftM)<<1 | mm&selfM
		if mm&rareM != 0 {
			if mm&p.reports[0] != 0 {
				m.pos = pos + int64(i)
				m.report(0, [wordsPerPartition]uint64{mm})
			}
			for x := mm & otherM; x != 0; x &= x - 1 {
				nx |= p.localRows[bits.OnesCount64(otherM&(x&-x-1))][0]
			}
		}
		e = nx | a0
	}

	p.enabled[0] = e
	m.pos = pos + int64(len(input))
	st.Cycles += int64(len(input))
	st.SumActiveStates += sumActive
	st.SumActivePartitions += int64(live)
	st.MaxActiveStates = maxActive
	if live > 0 {
		st.MaxActivePartitions = 1
	}
	m.setActive()
}

// report records the matched reporting slots of partition pi at m.pos, in
// ascending slot order: counted, and collected under CollectMatches, with
// the state and report code the placement holds for the slot. What
// the output buffer did with them is derived from the count (see derive).
// The caller passes the cycle's match words (they live in registers in
// the hot loop and are not stored anywhere else). It is kept out of
// line: inlined, its arguments cost the symbol loops registers at every
// call site (−5 % scan_mb_per_s on the ledger's compile-cold).
//
//go:noinline
func (m *Machine) report(pi int, matched [wordsPerPartition]uint64) {
	reports := &m.parts[pi].reports
	for w, mw := range matched {
		for rb := mw & reports[w]; rb != 0; rb &= rb - 1 {
			m.res.MatchCount++
			if m.opts.CollectMatches {
				s := m.pl.Partitions[pi].Slots[w<<6+bits.TrailingZeros64(rb)]
				m.res.Matches = append(m.res.Matches, Match{
					Offset: m.pos,
					Code:   m.pl.NFA.States[s].ReportCode,
					State:  s,
				})
			}
		}
	}
}

// derive fills the numbers of r that the symbol loops do not carry
// because they are functions of what the loops do carry. r accumulated
// from stream position base with b0 entries in the output buffer, so it
// ends at pos = base + Cycles having pushed MatchCount more:
//
//   - the input FIFO (§2.8) fetches each cache line once, when the stream
//     first touches it, however the stream is chunked; the lines up to
//     base, a partly consumed one included, were fetched before r began;
//   - the 64-entry output buffer (§2.8) interrupts and drains each time it
//     fills, so interrupts, high-water mark and the occupancy left over
//     (returned: it is architectural state, not a statistic) follow from
//     b0 + MatchCount;
//   - a partition holding always-on starts is active every cycle and a
//     partition holding none adds nothing, so the dynamic-state sum is
//     the active-state sum less the always-on count per cycle.
func (m *Machine) derive(r *Result, base int64, b0 int) (buffered int) {
	lines := func(pos int64) int64 { return (pos + cacheLineBytes - 1) / cacheLineBytes }
	a := &r.Activity
	a.SumDynamicStates = a.SumActiveStates - a.Cycles*m.alwaysCnt
	r.FIFORefills = lines(base+a.Cycles) - lines(base)
	pushed := int64(b0) + r.MatchCount
	r.OutputBufferInterrupts = pushed / OutputBufferEntries
	if r.MatchCount > 0 {
		r.OutputBufferPeak = min(pushed, OutputBufferEntries)
	}
	return int(pushed % OutputBufferEntries)
}

// DrainMatches hands over the collected matches and releases the machine's
// reference to them, so long-lived streams do not retain every match ever
// seen. The accumulated MatchCount and activity statistics are unaffected.
func (m *Machine) DrainMatches() []Match {
	ms := m.res.Matches
	m.res.Matches = nil
	return ms
}
