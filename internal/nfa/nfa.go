// Package nfa models homogeneous Non-deterministic Finite Automata in the
// ANML form the Automata Processor and the Cache Automaton execute (paper
// §2.1): every state (State Transition Element, STE) is labeled with one
// symbol class, and all transitions *into* a state are implied by activating
// that state — an edge u→v means "when u matches, v becomes enabled for the
// next symbol".
//
// Execution semantics per input symbol (paper §2.2):
//
//	matched = enabled ∩ states whose class contains the symbol
//	enabled' = ⋃ out(matched) ∪ all-input start states
//	report every matched state with a report code
//
// Start-of-data states are enabled only for the first input symbol;
// all-input states are enabled for every symbol (equivalent to an
// unanchored /.*pattern/ prefix).
package nfa

import (
	"fmt"
	"slices"

	"cacheautomaton/internal/bitvec"
)

// StateID identifies a state within one NFA. IDs are dense indices into
// NFA.States.
type StateID int32

// None is the nil StateID.
const None StateID = -1

// StartType says when a state is self-enabled, independent of incoming
// transitions.
type StartType uint8

const (
	// NoStart states are enabled only by incoming transitions.
	NoStart StartType = iota
	// StartOfData states are enabled for the first input symbol only.
	StartOfData
	// AllInput states are enabled for every input symbol.
	AllInput
)

func (s StartType) String() string {
	switch s {
	case NoStart:
		return "none"
	case StartOfData:
		return "start-of-data"
	case AllInput:
		return "all-input"
	default:
		return fmt.Sprintf("StartType(%d)", uint8(s))
	}
}

// State is one STE: a symbol class, start behaviour, optional report, and
// the states it activates on match.
type State struct {
	// Class is the set of input symbols this state matches.
	Class bitvec.Class
	// Start is when the state is self-enabled.
	Start StartType
	// Report indicates a reporting (accepting) state.
	Report bool
	// ReportCode distinguishes which pattern matched; meaningful only when
	// Report is true.
	ReportCode int32
	// Out lists the states enabled when this state matches. Order is not
	// semantically meaningful; duplicates are not allowed.
	Out []StateID
}

// NFA is a homogeneous automaton: a dense slice of states.
type NFA struct {
	States []State
}

// New returns an empty NFA.
func New() *NFA { return &NFA{} }

// AddState appends a state and returns its ID.
func (n *NFA) AddState(s State) StateID {
	n.States = append(n.States, s)
	return StateID(len(n.States) - 1)
}

// AddEdge adds the transition u→v if not already present.
func (n *NFA) AddEdge(u, v StateID) {
	for _, w := range n.States[u].Out {
		if w == v {
			return
		}
	}
	n.States[u].Out = append(n.States[u].Out, v)
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.States) }

// NumEdges returns the total number of transitions.
func (n *NFA) NumEdges() int {
	e := 0
	for i := range n.States {
		e += len(n.States[i].Out)
	}
	return e
}

// StartStates returns the IDs of all start states (either start type).
func (n *NFA) StartStates() []StateID {
	var out []StateID
	for i := range n.States {
		if n.States[i].Start != NoStart {
			out = append(out, StateID(i))
		}
	}
	return out
}

// ReportStates returns the IDs of all reporting states.
func (n *NFA) ReportStates() []StateID {
	var out []StateID
	for i := range n.States {
		if n.States[i].Report {
			out = append(out, StateID(i))
		}
	}
	return out
}

// InEdges returns, for every state, the list of its predecessor states.
func (n *NFA) InEdges() [][]StateID {
	in := make([][]StateID, len(n.States))
	for u := range n.States {
		for _, v := range n.States[u].Out {
			in[v] = append(in[v], StateID(u))
		}
	}
	return in
}

// Clone returns a deep copy of the NFA.
func (n *NFA) Clone() *NFA {
	c := &NFA{States: make([]State, len(n.States))}
	for i, s := range n.States {
		cs := s
		cs.Out = append([]StateID(nil), s.Out...)
		c.States[i] = cs
	}
	return c
}

// Validate checks structural invariants: edge targets in range, no
// duplicate edges, non-empty symbol classes, and at least one start state
// if the NFA is non-empty. It returns the first violation found.
func (n *NFA) Validate() error {
	if len(n.States) == 0 {
		return nil
	}
	hasStart := false
	for i := range n.States {
		s := &n.States[i]
		if s.Start != NoStart {
			hasStart = true
		}
		if s.Class.IsEmpty() {
			return fmt.Errorf("nfa: state %d has an empty symbol class", i)
		}
		seen := make(map[StateID]bool, len(s.Out))
		for _, v := range s.Out {
			if v < 0 || int(v) >= len(n.States) {
				return fmt.Errorf("nfa: state %d has out-of-range edge to %d", i, v)
			}
			if seen[v] {
				return fmt.Errorf("nfa: state %d has duplicate edge to %d", i, v)
			}
			seen[v] = true
		}
	}
	if !hasStart {
		return fmt.Errorf("nfa: no start states")
	}
	return nil
}

// Union appends the states of every part, in order and each remapped by
// its offset, into n, and returns the offset of the first part (where it
// would go when there is none). The automata remain disconnected — this
// is the disjoint union used to combine patterns into one machine — and
// the result is the same as one call per part, but a rule set that
// collects its parts and unions them in one call grows States once and
// cuts every copied Out from one edge slab. Each Out's capacity is
// clipped to its length, so an AddEdge after the union copies that list
// instead of writing into its neighbour's.
func (n *NFA) Union(parts ...*NFA) StateID {
	first := StateID(len(n.States))
	states, edges := 0, 0
	for _, o := range parts {
		states += len(o.States)
		edges += o.NumEdges()
	}
	n.States = slices.Grow(n.States, states)
	slab := make([]StateID, edges)
	for _, o := range parts {
		off := StateID(len(n.States))
		for _, s := range o.States {
			out := slab[:len(s.Out):len(s.Out)]
			slab = slab[len(s.Out):]
			for j, v := range s.Out {
				out[j] = v + off
			}
			s.Out = out
			n.States = append(n.States, s)
		}
	}
	return first
}

// RemoveUnreachable drops states not reachable from any start state and
// returns the new NFA together with a mapping old→new ID (None for removed
// states).
func (n *NFA) RemoveUnreachable() (*NFA, []StateID) {
	reach := make([]bool, len(n.States))
	var stack []StateID
	for i := range n.States {
		if n.States[i].Start != NoStart {
			reach[i] = true
			stack = append(stack, StateID(i))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range n.States[u].Out {
			if !reach[v] {
				reach[v] = true
				stack = append(stack, v)
			}
		}
	}
	remap := make([]StateID, len(n.States))
	out := New()
	for i := range n.States {
		if reach[i] {
			remap[i] = StateID(len(out.States))
			s := n.States[i]
			s.Out = nil
			out.States = append(out.States, s)
		} else {
			remap[i] = None
		}
	}
	for i := range n.States {
		if remap[i] == None {
			continue
		}
		for _, v := range n.States[i].Out {
			if remap[v] != None {
				out.AddEdge(remap[i], remap[v])
			}
		}
	}
	return out, remap
}
