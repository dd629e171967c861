package regexc

import (
	"errors"
	"fmt"
	"slices"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
)

// errNullable refuses a pattern that matches the empty string. A pattern
// without positions is one, so no other check is needed for it.
var errNullable = errors.New("regexc: pattern matches the empty string, which a streaming automaton cannot report")

// span is a position set: arena[lo:hi], ascending and duplicate-free.
type span struct{ lo, hi int32 }

func (s span) empty() bool { return s.lo == s.hi }

func (s span) len() int32 { return s.hi - s.lo }

// sub is s[i:j].
func (s span) sub(i, j int32) span { return span{s.lo + i, s.lo + j} }

// block is last[l0:l1] × first[f0:f1] of one subexpression, offsets into
// its own spans, so it survives settle.
type block struct{ l0, l1, f0, f1 int32 }

func (b block) area() int64 { return int64(b.l1-b.l0) * int64(b.f1-b.f0) }

// posInfo is the Glushkov summary of one subexpression on the stack.
type posInfo struct {
	nullable    bool
	first, last span
}

// edge is one follow pair: position to may follow position from.
type edge struct{ from, to int32 }

// glushkov is the one pass from a slab to its automaton. Positions are
// the slab's class nodes in order, so pattern i's states follow pattern
// i-1's. The first and last sets of every subexpression are spans of
// one arena; a set that is the union of its operands' sets is their
// spans written one after another, already ascending because an
// operand's positions all precede the next operand's. The arena holds
// the stack's sets in stack order, so folding operands drops everything
// their subtrees wrote but the result's two sets. Follow pairs go into
// one list, cut into the states' Out lists at the end.
type glushkov struct {
	stack []posInfo
	// done[i] is a block of stack[i] whose pairs are follow pairs
	// already, so a star over it need not add them again. It is kept
	// beside the stack, not in posInfo, which stays small enough for the
	// compiler to keep in registers.
	done  []block
	arena []int32
	tmp   []int32
	edges []edge
	// A repeated star over the same positions adds the same pairs again,
	// so once edges passes compactAt they are de-duplicated in place and
	// the list stays within a small multiple of the distinct follows.
	compactAt int
	targets   []nfa.StateID
	at, seen  []int32
}

// cross records last × first as follow pairs.
func (g *glushkov) cross(last, first span) {
	if n := int(last.len()) * int(first.len()); cap(g.edges)-len(g.edges) < n {
		g.edges = slices.Grow(g.edges, n)
	}
	for _, l := range g.arena[last.lo:last.hi] {
		for _, f := range g.arena[first.lo:first.hi] {
			g.edges = append(g.edges, edge{l, f})
		}
	}
	if len(g.edges) > g.compactAt {
		g.compact()
	}
}

// compactFloor is the least compactAt: a list this short is never worth
// a pass.
const compactFloor = 1 << 16

// compact drops the duplicate follow pairs and raises compactAt to twice
// what is left. A stamp per target marks it seen in the group
// being kept, so the pass is linear; cutOut sorts the groups at the end.
func (g *glushkov) compact() {
	if cap(g.targets) < len(g.edges) {
		g.targets = make([]nfa.StateID, 0, cap(g.edges))
	}
	g.group()
	if g.seen == nil {
		g.seen = make([]int32, len(g.at))
	}
	clear(g.seen)
	g.edges = g.edges[:0]
	lo := int32(0)
	for i, hi := range g.at {
		for _, t := range g.targets[lo:hi] {
			if g.seen[t] != int32(i+1) {
				g.seen[t] = int32(i + 1)
				g.edges = append(g.edges, edge{int32(i), int32(t)})
			}
		}
		lo = hi
	}
	g.compactAt = max(2*len(g.edges), g.compactAt)
}

// group sorts the follow pairs by source (a counting sort) into targets:
// state i's targets are targets[at[i-1]:at[i]].
func (g *glushkov) group() {
	at := g.at
	clear(at)
	for _, e := range g.edges {
		at[e.from]++
	}
	sum := int32(0)
	for i, c := range at {
		at[i] = sum
		sum += c
	}
	if g.targets == nil || cap(g.targets) < len(g.edges) {
		g.targets = make([]nfa.StateID, len(g.edges))
	}
	targets := g.targets[:len(g.edges)]
	for _, e := range g.edges {
		targets[at[e.from]] = nfa.StateID(e.to)
		at[e.from]++
	}
	g.targets = targets
}

// join is the union of the first (or, with last, the last) sets of ops:
// the one non-empty span itself, or all of them copied in order to the
// arena's end.
func (g *glushkov) join(ops []posInfo, last bool) span {
	pick := func(o posInfo) span {
		if last {
			return o.last
		}
		return o.first
	}
	var only span
	n := 0
	for _, o := range ops {
		if s := pick(o); !s.empty() {
			only = s
			n++
		}
	}
	if n <= 1 {
		return only
	}
	lo := int32(len(g.arena))
	for _, o := range ops {
		s := pick(o)
		g.arena = append(g.arena, g.arena[s.lo:s.hi]...)
	}
	return span{lo, int32(len(g.arena))}
}

// concat folds the operands of a concatenation: follow pairs from every
// operand's last set that can end right before the next operand to that
// operand's first set, and the first (last) set from the operands up to
// (from) the first (last) that cannot be empty.
func (g *glushkov) concat(ops []posInfo, done []block) (posInfo, block) {
	out := posInfo{nullable: true}
	firstTo, lastFrom := len(ops), 0
	for j := range ops {
		if !ops[j].nullable {
			out.nullable = false
			firstTo = min(firstTo, j+1)
			lastFrom = j
		}
	}
	from := 0
	for j := 1; j < len(ops); j++ {
		if !ops[j-1].nullable {
			from = j - 1
		}
		for t := from; t < j; t++ {
			g.cross(ops[t].last, ops[j].first)
		}
	}
	out.first = g.join(ops[:firstTo], false)
	out.last = g.join(ops[lastFrom:], true)
	return out, keepDone(ops, done, firstTo, lastFrom)
}

// keepDone is the largest done block of an operand whose first and last
// sets are both in the fold's, which join wrote in operand order:
// ops[:firstTo]'s first sets and ops[lastFrom:]'s last sets.
func keepDone(ops []posInfo, done []block, firstTo, lastFrom int) block {
	var out block
	var offF, offL int32
	for j, o := range ops {
		if d := done[j]; j < firstTo && j >= lastFrom && d.area() > out.area() {
			out = block{d.l0 + offL, d.l1 + offL, d.f0 + offF, d.f1 + offF}
		}
		if j < firstTo {
			offF += o.first.len()
		}
		if j >= lastFrom {
			offL += o.last.len()
		}
	}
	return out
}

// alt folds the operands of an alternation.
func (g *glushkov) alt(ops []posInfo, done []block) (posInfo, block) {
	out := posInfo{first: g.join(ops, false), last: g.join(ops, true)}
	for _, o := range ops {
		out.nullable = out.nullable || o.nullable
	}
	return out, keepDone(ops, done, len(ops), 0)
}

// settle moves r, the fold of ops, down to where ops' sets begin in the
// arena and drops everything after it: the arena past that point holds
// only what ops' subtrees wrote. Without it a deep nest of alternations
// would keep every level's union alive.
func (g *glushkov) settle(ops []posInfo, r posInfo) posInfo {
	// The first operand with positions wrote first; its lower span is
	// where the operands' sets begin.
	base := int32(len(g.arena))
	for _, o := range ops {
		if !o.first.empty() {
			base = min(o.first.lo, o.last.lo)
			break
		}
	}
	g.tmp = append(append(g.tmp[:0], g.arena[r.first.lo:r.first.hi]...), g.arena[r.last.lo:r.last.hi]...)
	g.arena = append(g.arena[:base], g.tmp...)
	mid := base + r.first.hi - r.first.lo
	r.first, r.last = span{base, mid}, span{mid, int32(len(g.arena))}
	return r
}

// build runs the pass over every pattern in s, whose reports carry
// reportCode, or with set, their own index. It returns the index of the
// pattern that fails. A set gives every state a non-nil Out, as the
// Union it replaces did; a single pattern's states without follows keep
// nil.
func (g *glushkov) build(s *slab, reportCode int32, set bool) (*nfa.NFA, int, error) {
	out := &nfa.NFA{}
	if s.positions > 0 {
		out.States = make([]nfa.State, s.positions)
	}
	g.edges = make([]edge, 0, s.positions) // most positions have one follower
	g.at = make([]int32, s.positions)
	g.compactAt = max(4*s.positions, compactFloor)
	pos, lo := int32(0), 0
	for i, pat := range s.pats {
		g.arena, g.stack, g.done = g.arena[:0], g.stack[:0], g.done[:0]
		for _, nd := range s.nodes[lo:pat.end] {
			top := len(g.stack) - 1
			switch nd.op {
			case opClass:
				out.States[pos].Class = s.classes[nd.arg]
				a := int32(len(g.arena))
				g.arena = append(g.arena, pos)
				g.stack = append(g.stack, posInfo{first: span{a, a + 1}, last: span{a, a + 1}})
				g.done = append(g.done, block{})
				pos++
			case opEmpty:
				g.stack = append(g.stack, posInfo{nullable: true})
				g.done = append(g.done, block{})
			case opStar, opPlus:
				t, d := &g.stack[top], g.done[top]
				nl, nf := t.last.len(), t.first.len()
				g.cross(t.last.sub(0, d.l0), t.first)
				g.cross(t.last.sub(d.l1, nl), t.first)
				g.cross(t.last.sub(d.l0, d.l1), t.first.sub(0, d.f0))
				g.cross(t.last.sub(d.l0, d.l1), t.first.sub(d.f1, nf))
				g.done[top] = block{0, nl, 0, nf}
				if nd.op == opStar {
					t.nullable = true
				}
			case opQuest:
				g.stack[top].nullable = true
			case opConcat, opAlt:
				k := len(g.stack) - int(nd.arg)
				var r posInfo
				var d block
				if nd.op == opConcat {
					r, d = g.concat(g.stack[k:], g.done[k:])
				} else {
					r, d = g.alt(g.stack[k:], g.done[k:])
				}
				g.stack = append(g.stack[:k], g.settle(g.stack[k:], r))
				g.done = append(g.done[:k], d)
			}
		}
		lo = pat.end
		root := g.stack[0]
		if root.nullable {
			return nil, i, errNullable
		}
		if set {
			reportCode = int32(i)
		}
		start := nfa.AllInput
		if pat.anchored {
			start = nfa.StartOfData
		}
		for _, f := range g.arena[root.first.lo:root.first.hi] {
			out.States[f].Start = start
		}
		for _, l := range g.arena[root.last.lo:root.last.hi] {
			out.States[l].Report = true
			out.States[l].ReportCode = reportCode
		}
	}
	g.cutOut(out.States, set)
	return out, 0, nil
}

// cutOut turns the follow pairs into every state's Out: grouped by
// source, each group sorted and de-duplicated — the ascending,
// duplicate-free list AddEdge would build — and all of them cut from one
// slab with their capacities clipped.
func (g *glushkov) cutOut(states []nfa.State, keepEmpty bool) {
	g.group()
	// Each group is sorted, de-duplicated and packed down to w, and at[i]
	// becomes its length.
	slab, at := g.targets, g.at
	w, lo := 0, int32(0)
	for i := range states {
		group := slab[lo:at[i]]
		lo = at[i]
		slices.Sort(group)
		group = slices.Compact(group)
		at[i] = int32(copy(slab[w:], group))
		w += len(group)
	}
	if w < len(slab) {
		slab = slices.Clone(slab[:w])
	}
	w = 0
	for i := range states {
		n := w + int(at[i])
		if n > w || keepEmpty {
			states[i].Out = slab[w:n:n]
		}
		w = n
	}
}

// CompileParsed converts a parsed pattern into a homogeneous NFA. Every
// reporting state carries reportCode.
func CompileParsed(p *Parsed, reportCode int32) (*nfa.NFA, error) {
	var g glushkov
	out, _, err := g.build(&p.s, reportCode, false)
	return out, err
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
// (paper §1). Every pattern is parsed into one slab and the one Glushkov
// pass writes the whole set. With Options.Trace set, the parse and
// Glushkov phases are recorded as separate stage spans.
func CompileSet(patterns []string, opts Options) (*nfa.NFA, error) {
	sp := opts.Trace.StartStage("regexc.parse")
	size := 0
	for _, pat := range patterns {
		size += len(pat)
	}
	s := newSlab(size, len(patterns))
	p := newParser("", opts, &s)
	for i, pat := range patterns {
		p.reset(pat)
		if err := p.parse(); err != nil {
			sp.End()
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
	}
	sp.SetAttr("patterns", int64(len(patterns)))
	sp.End()

	sg := opts.Trace.StartStage("regexc.glushkov")
	var g glushkov
	out, bad, err := g.build(&s, 0, true)
	if err != nil {
		sg.End()
		return nil, fmt.Errorf("pattern %d: %w", bad, err)
	}
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
// It takes what parseAtom takes; only a group needs a slab.
func ParseClass(s string) (bitvec.Class, error) {
	if s == "*" || s == "." {
		return bitvec.AllSymbols(), nil
	}
	p := newParser(s, Options{}, nil)
	var cl bitvec.Class
	var err error
	switch c := p.peekByte(); c {
	case '(':
		p.s = &slab{}
		err = p.parseAtom()
	case ')', '*', '+', '?', '$', '^':
		err = p.atomErr(c)
	default:
		cl, err = p.parseSymbols()
	}
	if err != nil {
		return bitvec.Class{}, err
	}
	if p.pos != len(p.pat) {
		return bitvec.Class{}, p.errf("trailing characters in symbol set")
	}
	if p.s != nil {
		if len(p.s.nodes) != 1 || p.s.nodes[0].op != opClass {
			return bitvec.Class{}, fmt.Errorf("regexc: %q is not a symbol set", s)
		}
		cl = p.s.classes[p.s.nodes[0].arg]
	}
	return cl, nil
}
