package mapper

import (
	"reflect"
	"slices"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/spaceopt"
)

// OptimizeLevel records how much state merging the space-optimized
// compilation applied (see MapOptimized).
type OptimizeLevel int

const (
	// FullMerge: prefix + suffix merging to fixpoint.
	FullMerge OptimizeLevel = iota
	// PrefixMerge: prefix-only merging.
	PrefixMerge
	// NoMerge: the baseline NFA.
	NoMerge
)

func (l OptimizeLevel) String() string {
	switch l {
	case FullMerge:
		return "full-merge"
	case PrefixMerge:
		return "prefix-merge"
	default:
		return "no-merge"
	}
}

// MapOptimized performs the space-optimized (CA_S) compilation with the
// compiler's back-off ladder: it tries the fully merged NFA first, then
// prefix-only merging, then the unmerged NFA. Merging fuses connected
// components and densifies them (§3.1), so heavily-merged automata can
// exceed the interconnect's 16/8 signal budgets; the paper's own Table 1
// shows the same back-off in effect — Levenshtein's and Hamming's
// space-optimized rows are (nearly) identical to their baselines because
// their dense structure leaves no mappable merge.
//
// For performance designs it maps the baseline NFA directly.
//
// Map is deterministic, so a rung whose automaton equals one that already
// failed is not mapped again: its span says skipped=1 (on Levenshtein,
// prefix-only merging often yields the full merge's automaton).
func MapOptimized(n *nfa.NFA, cfg Config) (*Placement, OptimizeLevel, error) {
	if cfg.Design == nil || cfg.Design.Kind == arch.PerfOpt {
		pl, err := Map(n, cfg)
		return pl, NoMerge, err
	}
	var lastErr error
	var failed []*nfa.NFA
	for _, level := range []OptimizeLevel{FullMerge, PrefixMerge, NoMerge} {
		sp := cfg.Trace.StartStage("backoff." + level.String())
		candidate := n
		switch level {
		case FullMerge:
			candidate = spaceopt.Optimize(n, spaceopt.Options{}).NFA
		case PrefixMerge:
			candidate = spaceopt.Optimize(n, spaceopt.Options{PrefixOnly: true}).NFA
		}
		sp.SetAttr("states_in", int64(n.NumStates()))
		sp.SetAttr("states_out", int64(candidate.NumStates()))
		if slices.ContainsFunc(failed, func(f *nfa.NFA) bool { return reflect.DeepEqual(f.States, candidate.States) }) {
			sp.SetAttr("mapped", 0)
			sp.SetAttr("skipped", 1)
			sp.End()
			continue
		}
		pl, err := Map(candidate, cfg)
		if err == nil {
			sp.SetAttr("mapped", 1)
			sp.End()
			return pl, level, nil
		}
		sp.SetAttr("mapped", 0)
		sp.End()
		lastErr = err
		failed = append(failed, candidate)
	}
	return nil, NoMerge, lastErr
}
