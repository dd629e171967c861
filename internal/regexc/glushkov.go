package regexc

import (
	"fmt"

	"cacheautomaton/internal/bitvec"

	"cacheautomaton/internal/nfa"
)

// glushkov holds the position sets computed by the construction.
type glushkov struct {
	leaves []*ClassNode // position p-1 → leaf
	follow [][]int      // position p-1 → following positions (1-based values)
}

type posInfo struct {
	nullable bool
	first    []int
	last     []int
}

// CompileParsed converts a parsed pattern into a homogeneous NFA. Every
// reporting state carries reportCode.
func CompileParsed(p *Parsed, reportCode int32) (*nfa.NFA, error) {
	g := &glushkov{}
	g.number(p.Root)
	g.follow = make([][]int, len(g.leaves))
	info := g.analyze(p.Root)
	if info.nullable {
		return nil, fmt.Errorf("regexc: pattern matches the empty string, which a streaming automaton cannot report")
	}
	if len(g.leaves) == 0 {
		return nil, fmt.Errorf("regexc: pattern has no symbols")
	}

	start := nfa.AllInput
	if p.Anchored {
		start = nfa.StartOfData
	}
	out := &nfa.NFA{States: make([]nfa.State, len(g.leaves))}
	for i, leaf := range g.leaves {
		out.States[i].Class = leaf.Class
	}
	for _, f := range info.first {
		out.States[f-1].Start = start
	}
	for _, l := range info.last {
		out.States[l-1].Report = true
		out.States[l-1].ReportCode = reportCode
	}
	// A follow list is ascending and duplicate-free — already the Out list
	// AddEdge would build — so every Out is cut from one slab.
	edges := 0
	for _, fs := range g.follow {
		edges += len(fs)
	}
	slab := make([]nfa.StateID, edges)
	for p0, fs := range g.follow {
		if len(fs) == 0 {
			continue
		}
		o := slab[:len(fs):len(fs)]
		slab = slab[len(fs):]
		for j, f := range fs {
			o[j] = nfa.StateID(f - 1)
		}
		out.States[p0].Out = o
	}
	return out, nil
}

// number assigns 1-based positions to class leaves in left-to-right order.
func (g *glushkov) number(n Node) {
	switch v := n.(type) {
	case EmptyNode:
	case *ClassNode:
		g.leaves = append(g.leaves, v)
		v.Pos = len(g.leaves)
	case *ConcatNode:
		for _, s := range v.Subs {
			g.number(s)
		}
	case *AltNode:
		for _, s := range v.Subs {
			g.number(s)
		}
	case *StarNode:
		g.number(v.Sub)
	case *PlusNode:
		g.number(v.Sub)
	case *QuestNode:
		g.number(v.Sub)
	default:
		panic(fmt.Sprintf("regexc: unknown node %T", n))
	}
}

// analyze computes nullable/first/last bottom-up and fills in follow.
func (g *glushkov) analyze(n Node) posInfo {
	switch v := n.(type) {
	case EmptyNode:
		return posInfo{nullable: true}
	case *ClassNode:
		return posInfo{first: []int{v.Pos}, last: []int{v.Pos}}
	case *ConcatNode:
		acc := posInfo{nullable: true}
		for _, s := range v.Subs {
			si := g.analyze(s)
			// follow: last(acc) → first(si)
			for _, l := range acc.last {
				g.addFollow(l, si.first)
			}
			var first []int
			if acc.nullable {
				first = unionPos(acc.first, si.first)
			} else {
				first = acc.first
			}
			var last []int
			if si.nullable {
				last = unionPos(si.last, acc.last)
			} else {
				last = si.last
			}
			acc = posInfo{
				nullable: acc.nullable && si.nullable,
				first:    first,
				last:     last,
			}
		}
		return acc
	case *AltNode:
		var acc posInfo
		for i, s := range v.Subs {
			si := g.analyze(s)
			if i == 0 {
				acc = si
			} else {
				acc.nullable = acc.nullable || si.nullable
				acc.first = unionPos(acc.first, si.first)
				acc.last = unionPos(acc.last, si.last)
			}
		}
		return acc
	case *StarNode:
		si := g.analyze(v.Sub)
		for _, l := range si.last {
			g.addFollow(l, si.first)
		}
		return posInfo{nullable: true, first: si.first, last: si.last}
	case *PlusNode:
		si := g.analyze(v.Sub)
		for _, l := range si.last {
			g.addFollow(l, si.first)
		}
		return posInfo{nullable: si.nullable, first: si.first, last: si.last}
	case *QuestNode:
		si := g.analyze(v.Sub)
		return posInfo{nullable: true, first: si.first, last: si.last}
	default:
		panic(fmt.Sprintf("regexc: unknown node %T", n))
	}
}

func (g *glushkov) addFollow(pos int, next []int) {
	g.follow[pos-1] = unionPos(g.follow[pos-1], next)
}

// unionPos merges two ascending-unique position lists.
func unionPos(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Compile parses and compiles one pattern into a homogeneous NFA whose
// reporting states carry reportCode.
func Compile(pattern string, reportCode int32, opts Options) (*nfa.NFA, error) {
	p, err := Parse(pattern, opts)
	if err != nil {
		return nil, err
	}
	return CompileParsed(p, reportCode)
}

// CompileSet compiles a rule set into one NFA: the disjoint union of the
// per-pattern automata, with report code i for patterns[i]. This mirrors how
// AP rule sets bundle hundreds-to-thousands of patterns into one machine
// (paper §1). With Options.Trace set, the parse and Glushkov phases are
// recorded as separate stage spans.
func CompileSet(patterns []string, opts Options) (*nfa.NFA, error) {
	sp := opts.Trace.StartStage("regexc.parse")
	parsed := make([]*Parsed, len(patterns))
	for i, pat := range patterns {
		p, err := Parse(pat, opts)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		parsed[i] = p
	}
	sp.SetAttr("patterns", int64(len(patterns)))
	sp.End()

	sg := opts.Trace.StartStage("regexc.glushkov")
	parts := make([]*nfa.NFA, len(parsed))
	for i, p := range parsed {
		one, err := CompileParsed(p, int32(i))
		if err != nil {
			sg.End()
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		parts[i] = one
	}
	out := nfa.New()
	out.Union(parts...)
	if err := out.Validate(); err != nil {
		sg.End()
		return nil, err
	}
	sg.SetAttr("states", int64(out.NumStates()))
	sg.End()
	return out, nil
}

// ParseClass parses a standalone symbol-set expression — a bracket
// expression ("[a-z]"), a single literal or escape ("a", `\x00`), "." or
// "*" (both meaning all symbols) — as used by ANML symbol-set attributes.
func ParseClass(s string) (bitvec.Class, error) {
	if s == "*" || s == "." {
		return bitvec.AllSymbols(), nil
	}
	p := &parser{pat: s}
	node, err := p.parseAtom()
	if err != nil {
		return bitvec.Class{}, err
	}
	if p.pos != len(p.pat) {
		return bitvec.Class{}, p.errf("trailing characters in symbol set")
	}
	cn, ok := node.(*ClassNode)
	if !ok {
		return bitvec.Class{}, fmt.Errorf("regexc: %q is not a symbol set", s)
	}
	return cn.Class, nil
}
