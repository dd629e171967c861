package workload

import (
	"fmt"
	"math/rand"

	"cacheautomaton/internal/nfa"
)

// PaperRow holds the published Table 1 characteristics for one benchmark,
// for both the performance-optimized (baseline NFA) and space-optimized
// (state-merged) designs. Used to report paper-vs-measured deltas.
type PaperRow struct {
	// Performance-optimized columns.
	States, CCs, LargestCC int
	AvgActive              float64
	// Space-optimized columns.
	SStates, SCCs, SLargestCC int
	SAvgActive                float64
}

// Spec describes one synthetic benchmark.
type Spec struct {
	// Name matches the paper's Table 1 row.
	Name string
	// Description says what the original benchmark is and how the
	// synthetic generator reproduces its shape.
	Description string
	// Paper holds the published Table 1 numbers.
	Paper PaperRow
	// build constructs the baseline NFA at the given scale (1.0 = paper
	// size) and returns plantable literals for the input generator.
	build func(r *rand.Rand, scale float64) (*nfa.NFA, []string)
	// inputSym draws one background-stream symbol.
	inputSym func(r *rand.Rand) byte
	// plantEvery plants a literal fragment roughly every this many bytes
	// (0 = never).
	plantEvery int
	// customInput, when set, fully replaces the default background+plant
	// input generation (lits are the regenerated plantable literals).
	customInput func(r *rand.Rand, size int, lits []string) []byte
}

// Build generates the benchmark NFA deterministically from seed. scale
// multiplies the pattern count (use 1.0 for paper-sized NFAs, smaller for
// quick runs); the per-pattern shape is unchanged.
func (s *Spec) Build(seed int64, scale float64) (*nfa.NFA, error) {
	if scale <= 0 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed ^ int64(len(s.Name))<<32))
	n, _ := s.build(r, scale)
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return n, nil
}

// Input generates size bytes of benchmark-appropriate input: background
// symbols from the benchmark's alphabet with pattern fragments planted at
// the benchmark's match rate. Deterministic in seed.
func (s *Spec) Input(seed int64, size int) []byte {
	r := rand.New(rand.NewSource(seed*7919 + int64(len(s.Name))))
	// Regenerate the literals with the same derivation Build uses so the
	// planted fragments belong to the actual rule set.
	rb := rand.New(rand.NewSource(seed ^ int64(len(s.Name))<<32))
	_, lits := s.build(rb, 0.05) // small scale: literals for planting only
	if s.customInput != nil {
		return s.customInput(r, size, lits)
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = s.inputSym(r)
	}
	if s.plantEvery > 0 && len(lits) > 0 {
		for pos := s.plantEvery / 2; pos < size; pos += s.plantEvery/2 + r.Intn(s.plantEvery) {
			lit := lits[r.Intn(len(lits))]
			if pos+len(lit) > size {
				break
			}
			copy(out[pos:], lit)
		}
	}
	return out
}

// scaleCount scales a pattern count, keeping at least 1.
func scaleCount(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// All returns the 20 benchmark specs in Table 1 order.
func All() []*Spec { return registry }

// ByName finds a spec (nil if unknown).
func ByName(name string) *Spec {
	for _, s := range registry {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Names lists the benchmark names in Table 1 order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}
