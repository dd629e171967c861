// Package baseline provides compute-centric (CPU) automata engines: the
// software comparison points of the paper's evaluation (§5.1 compares
// against x86 CPU processing; §6 discusses compute-centric architectures
// that "store the complete state-transition matrix as a lookup table in
// cache/memory").
//
// NFAEngine is an active-set traversal engine in the style of VASim — it
// only does work proportional to the number of active states, which is how
// optimized CPU NFA engines behave. DFAEngine performs subset construction
// (with alphabet compression and a state cap, since NFA→DFA blow-up is the
// reason CPUs struggle with large rule sets, §6) and then processes one
// table lookup per symbol.
package baseline

import "cacheautomaton/internal/nfa"

// NFAEngine executes a homogeneous NFA with an explicit active list.
type NFAEngine struct {
	n *nfa.NFA
	// always are the all-input start states, re-enabled each cycle.
	always []nfa.StateID
	// startOnly are the start-of-data states (cycle 0 only).
	startOnly []nfa.StateID
	enabled   []bool
	nextFlag  []bool
	frontier  []nfa.StateID
	nextList  []nfa.StateID
	pos       int64
}

// NewNFAEngine builds an engine for n.
func NewNFAEngine(n *nfa.NFA) *NFAEngine {
	e := &NFAEngine{
		n:        n,
		enabled:  make([]bool, n.NumStates()),
		nextFlag: make([]bool, n.NumStates()),
	}
	for i := range n.States {
		switch n.States[i].Start {
		case nfa.AllInput:
			e.always = append(e.always, nfa.StateID(i))
		case nfa.StartOfData:
			e.startOnly = append(e.startOnly, nfa.StateID(i))
		}
	}
	e.Reset()
	return e
}

// Reset rewinds to offset 0.
func (e *NFAEngine) Reset() {
	e.pos = 0
	for i := range e.enabled {
		e.enabled[i] = false
		e.nextFlag[i] = false
	}
	e.frontier = e.frontier[:0]
	for _, s := range e.always {
		e.enabled[s] = true
		e.frontier = append(e.frontier, s)
	}
	for _, s := range e.startOnly {
		if !e.enabled[s] {
			e.enabled[s] = true
			e.frontier = append(e.frontier, s)
		}
	}
}

// ActiveCount returns the current active-set size.
func (e *NFAEngine) ActiveCount() int { return len(e.frontier) }

// Step consumes one symbol, appending matches to dst (pass nil to only
// count). It returns dst and the number of matches produced this step.
func (e *NFAEngine) Step(sym byte, dst []nfa.Match, collect bool) ([]nfa.Match, int) {
	matches := 0
	e.nextList = e.nextList[:0]
	for _, s := range e.frontier {
		st := &e.n.States[s]
		if !st.Class.Has(sym) {
			continue
		}
		if st.Report {
			matches++
			if collect {
				dst = append(dst, nfa.Match{Offset: int(e.pos), Code: st.ReportCode, State: s})
			}
		}
		for _, v := range st.Out {
			if !e.nextFlag[v] {
				e.nextFlag[v] = true
				e.nextList = append(e.nextList, v)
			}
		}
	}
	for _, s := range e.always {
		if !e.nextFlag[s] {
			e.nextFlag[s] = true
			e.nextList = append(e.nextList, s)
		}
	}
	// Swap frontiers.
	for _, s := range e.frontier {
		e.enabled[s] = false
	}
	for _, s := range e.nextList {
		e.nextFlag[s] = false
		e.enabled[s] = true
	}
	e.frontier, e.nextList = e.nextList, e.frontier
	e.pos++
	return dst, matches
}

// Run processes input, returning collected matches (if collect) and the
// total match count.
func (e *NFAEngine) Run(input []byte, collect bool) ([]nfa.Match, int64) {
	var out []nfa.Match
	var total int64
	for _, b := range input {
		var n int
		out, n = e.Step(b, out, collect)
		total += int64(n)
	}
	return out, total
}
