package baseline

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cacheautomaton/internal/nfa"
)

// ErrDFATooLarge is returned (wrapped) when subset construction exceeds the
// configured state budget — the NFA→DFA blow-up that motivates hardware NFA
// processing (§6: "Scaling these approaches to NFAs is non-trivial because
// of the huge computational complexity involved").
var ErrDFATooLarge = fmt.Errorf("baseline: DFA state budget exceeded")

// DFAEngine is a table-driven scanner built by subset construction over the
// homogeneous NFA, with alphabet equivalence-class compression.
type DFAEngine struct {
	// trans[state*numClasses+class] = next state.
	trans []int32
	// classOf maps each input byte to its alphabet class.
	classOf [256]uint8
	// numClasses is the compressed alphabet size.
	numClasses int
	// reports[state*numClasses+class] lists the distinct report codes that
	// fire when the DFA in `state` consumes a symbol of `class` (nil
	// otherwise).
	reports [][]int32
	// symbols[class] is a representative symbol of each alphabet class.
	symbols []byte
	// start is the initial DFA state.
	start int32
	pos   int64
	cur   int32
}

// DFAMatch is one report event from the DFA scanner: at Offset, all Codes
// fire simultaneously.
type DFAMatch struct {
	Offset int64
	Codes  []int32
}

// NewDFAEngine builds the DFA. maxStates caps construction (0 = 1<<20).
func NewDFAEngine(n *nfa.NFA, maxStates int) (*DFAEngine, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	e := &DFAEngine{}
	e.numClasses = nfa.AlphabetClasses(n, &e.classOf)
	for sym, cls := range e.classOf { // classes are numbered by first symbol
		if int(cls) == len(e.symbols) {
			e.symbols = append(e.symbols, byte(sym))
		}
	}

	var always []nfa.StateID
	var startSet []nfa.StateID
	for i := range n.States {
		switch n.States[i].Start {
		case nfa.AllInput:
			always = append(always, nfa.StateID(i))
			startSet = append(startSet, nfa.StateID(i))
		case nfa.StartOfData:
			startSet = append(startSet, nfa.StateID(i))
		}
	}
	sort.Slice(startSet, func(a, b int) bool { return startSet[a] < startSet[b] })

	// Subset construction. The scan-DFA transition injects the all-input
	// starts into every successor set, so the DFA natively matches
	// unanchored patterns.
	idOf := map[string]int32{}
	var sets [][]nfa.StateID
	intern := func(set []nfa.StateID) (int32, bool) {
		k := setKey(set)
		if id, ok := idOf[k]; ok {
			return id, false
		}
		id := int32(len(sets))
		idOf[k] = id
		sets = append(sets, set)
		return id, true
	}
	start, _ := intern(dedupSorted(startSet))
	e.start = start
	work := []int32{start}
	seen := make(map[nfa.StateID]bool)
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		set := sets[cur]
		for cls := 0; cls < e.numClasses; cls++ {
			sym := e.symbolForClass(cls)
			for k := range seen {
				delete(seen, k)
			}
			var next []nfa.StateID
			for _, s := range set {
				st := &n.States[s]
				if !st.Class.Has(sym) {
					continue
				}
				for _, v := range st.Out {
					if !seen[v] {
						seen[v] = true
						next = append(next, v)
					}
				}
			}
			for _, s := range always {
				if !seen[s] {
					seen[s] = true
					next = append(next, s)
				}
			}
			sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
			id, fresh := intern(next)
			if fresh {
				if len(sets) > maxStates {
					return nil, fmt.Errorf("%w: >%d states (NFA has %d states)", ErrDFATooLarge, maxStates, n.NumStates())
				}
				work = append(work, id)
			}
		}
	}
	// Second pass to fill the table now that numClasses × numStates is
	// known (rebuild transitions deterministically).
	e.trans = make([]int32, len(sets)*e.numClasses)
	for si := range sets {
		for cls := 0; cls < e.numClasses; cls++ {
			sym := e.symbolForClass(cls)
			for k := range seen {
				delete(seen, k)
			}
			var next []nfa.StateID
			for _, s := range sets[si] {
				st := &n.States[s]
				if !st.Class.Has(sym) {
					continue
				}
				for _, v := range st.Out {
					if !seen[v] {
						seen[v] = true
						next = append(next, v)
					}
				}
			}
			for _, s := range always {
				if !seen[s] {
					seen[s] = true
					next = append(next, s)
				}
			}
			sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
			id := idOf[setKey(next)]
			e.trans[si*e.numClasses+cls] = id
		}
	}
	// Per (state, class) reports would be exact; to keep the table small
	// we store per-state matched-report info separately: reportsOn[state][class].
	e.buildReports(n, sets)
	return e, nil
}

// reportsOn[state*numClasses+class] = distinct codes reported when the DFA
// is in `state` and consumes a symbol of `class`.
func (e *DFAEngine) buildReports(n *nfa.NFA, sets [][]nfa.StateID) {
	e.reports = make([][]int32, len(sets)*e.numClasses)
	for si, set := range sets {
		for cls := 0; cls < e.numClasses; cls++ {
			sym := e.symbolForClass(cls)
			var codes []int32
			for _, s := range set {
				st := &n.States[s]
				if st.Report && st.Class.Has(sym) {
					codes = append(codes, st.ReportCode)
				}
			}
			if codes != nil {
				codes = dedupCodes(codes)
				e.reports[si*e.numClasses+cls] = codes
			}
		}
	}
}

// symbolForClass returns a representative symbol of an alphabet class.
func (e *DFAEngine) symbolForClass(cls int) byte { return e.symbols[cls] }

// NumClasses returns the compressed alphabet size.
func (e *DFAEngine) NumClasses() int { return e.numClasses }

// Reset rewinds the scanner.
func (e *DFAEngine) Reset() {
	e.cur = e.start
	e.pos = 0
}

// Run scans input, returning collected matches (if collect) and the total
// number of report events (each distinct code at an offset counts once).
func (e *DFAEngine) Run(input []byte, collect bool) ([]DFAMatch, int64) {
	var out []DFAMatch
	var total int64
	nc := e.numClasses
	for _, b := range input {
		cls := int(e.classOf[b])
		idx := int(e.cur)*nc + cls
		if codes := e.reports[idx]; codes != nil {
			total += int64(len(codes))
			if collect {
				out = append(out, DFAMatch{Offset: e.pos, Codes: codes})
			}
		}
		e.cur = e.trans[idx]
		e.pos++
	}
	return out, total
}

func setKey(set []nfa.StateID) string {
	var sb strings.Builder
	for _, s := range set {
		sb.WriteString(strconv.FormatInt(int64(s), 36))
		sb.WriteByte(',')
	}
	return sb.String()
}

func dedupSorted(set []nfa.StateID) []nfa.StateID {
	out := set[:0]
	var last nfa.StateID = -2
	for _, s := range set {
		if s != last {
			out = append(out, s)
			last = s
		}
	}
	return out
}

func dedupCodes(codes []int32) []int32 {
	sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
	out := codes[:0]
	last := int32(-1 << 30)
	for _, c := range codes {
		if c != last {
			out = append(out, c)
			last = c
		}
	}
	return out
}
