package regexc

import (
	"fmt"
	"strings"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
)

// This file is the differential oracle for the slab compiler: the pointer
// AST the package used to build, its tree-cloning counted repetition and
// its recursive Glushkov analysis with a fresh list per set union. The
// symbol-class parsers and the repetition bound are shared with the
// product; the tree shapes, position sets and follow lists are not.

// Node is one node of the parsed regular-expression AST.
type Node interface {
	// writeTo renders a canonical pattern form (for diagnostics/tests).
	writeTo(b *strings.Builder)
}

// EmptyNode matches the empty string.
type EmptyNode struct{}

// ClassNode matches any single symbol in Class. Pos is assigned during the
// Glushkov numbering pass (0 until then).
type ClassNode struct {
	Class bitvec.Class
	Pos   int
}

// ConcatNode matches Subs in sequence.
type ConcatNode struct{ Subs []Node }

// AltNode matches any one of Subs.
type AltNode struct{ Subs []Node }

// StarNode matches zero or more repetitions of Sub.
type StarNode struct{ Sub Node }

// PlusNode matches one or more repetitions of Sub.
type PlusNode struct{ Sub Node }

// QuestNode matches zero or one occurrence of Sub.
type QuestNode struct{ Sub Node }

func (EmptyNode) writeTo(b *strings.Builder) { b.WriteString("()") }

func (n *ClassNode) writeTo(b *strings.Builder) { b.WriteString(n.Class.String()) }

func (n *ConcatNode) writeTo(b *strings.Builder) {
	for _, s := range n.Subs {
		s.writeTo(b)
	}
}

func (n *AltNode) writeTo(b *strings.Builder) {
	b.WriteByte('(')
	for i, s := range n.Subs {
		if i > 0 {
			b.WriteByte('|')
		}
		s.writeTo(b)
	}
	b.WriteByte(')')
}

func (n *StarNode) writeTo(b *strings.Builder)  { writeQuant(b, n.Sub, '*') }
func (n *PlusNode) writeTo(b *strings.Builder)  { writeQuant(b, n.Sub, '+') }
func (n *QuestNode) writeTo(b *strings.Builder) { writeQuant(b, n.Sub, '?') }

func writeQuant(b *strings.Builder, sub Node, q byte) {
	b.WriteByte('(')
	sub.writeTo(b)
	b.WriteByte(')')
	b.WriteByte(q)
}

// renderNode is Render for the AST.
func renderNode(n Node) string {
	var b strings.Builder
	n.writeTo(&b)
	return b.String()
}

// astParsed is the oracle's parse of one pattern.
type astParsed struct {
	Root     Node
	Anchored bool
}

// astParser builds the tree; parser supplies the symbol classes, the
// error positions and the repetition bound.
type astParser struct{ *parser }

func parseAST(pattern string, opts Options) (*astParsed, error) {
	p := astParser{newParser(pattern, opts, nil)}
	anchored := false
	if p.peekByte() == '^' {
		anchored = true
		p.pos++
	}
	root, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.pat) {
		return nil, p.errf("unexpected %q", p.pat[p.pos])
	}
	return &astParsed{Root: root, Anchored: anchored}, nil
}

func (p astParser) parseAlt() (Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if p.peekByte() != '|' {
		return first, nil
	}
	alt := &AltNode{Subs: []Node{first}}
	for p.peekByte() == '|' {
		p.pos++
		sub, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alt.Subs = append(alt.Subs, sub)
	}
	return alt, nil
}

func (p astParser) parseConcat() (Node, error) {
	var subs []Node
	for !p.eof() {
		c := p.peekByte()
		if c == '|' || c == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, atom)
	}
	switch len(subs) {
	case 0:
		return EmptyNode{}, nil
	case 1:
		return subs[0], nil
	default:
		return &ConcatNode{Subs: subs}, nil
	}
}

func (p astParser) parseRepeat() (Node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peekByte() {
		case '*':
			p.pos++
			atom = &StarNode{Sub: atom}
		case '+':
			p.pos++
			atom = &PlusNode{Sub: atom}
		case '?':
			p.pos++
			atom = &QuestNode{Sub: atom}
		case '{':
			rep, ok, err := p.parseCount()
			if err != nil {
				return nil, err
			}
			if !ok {
				return atom, nil // literal '{' was consumed as an atom earlier
			}
			atom, err = p.expandCount(atom, rep[0], rep[1])
			if err != nil {
				return nil, err
			}
		default:
			return atom, nil
		}
	}
	return atom, nil
}

// expandCount rewrites atom{m,n} structurally:
//
//	a{3}   → a a a
//	a{2,4} → a a a? a?
//	a{2,}  → a a a*
func (p astParser) expandCount(atom Node, m, n int) (Node, error) {
	positions := countLeaves(atom)
	if positions == 0 {
		return atom, nil
	}
	if err := p.grow(positions, copies(m, n)); err != nil {
		return nil, err
	}
	var subs []Node
	for i := 0; i < m; i++ {
		subs = append(subs, cloneNode(atom))
	}
	switch {
	case n == -1:
		subs = append(subs, &StarNode{Sub: cloneNode(atom)})
	default:
		for i := m; i < n; i++ {
			subs = append(subs, &QuestNode{Sub: cloneNode(atom)})
		}
	}
	switch len(subs) {
	case 0:
		return EmptyNode{}, nil
	case 1:
		return subs[0], nil
	default:
		return &ConcatNode{Subs: subs}, nil
	}
}

func countLeaves(n Node) int {
	switch v := n.(type) {
	case *ClassNode:
		return 1
	case *ConcatNode:
		c := 0
		for _, s := range v.Subs {
			c += countLeaves(s)
		}
		return c
	case *AltNode:
		c := 0
		for _, s := range v.Subs {
			c += countLeaves(s)
		}
		return c
	case *StarNode:
		return countLeaves(v.Sub)
	case *PlusNode:
		return countLeaves(v.Sub)
	case *QuestNode:
		return countLeaves(v.Sub)
	default:
		return 0
	}
}

func cloneNode(n Node) Node {
	switch v := n.(type) {
	case EmptyNode:
		return EmptyNode{}
	case *ClassNode:
		return &ClassNode{Class: v.Class}
	case *ConcatNode:
		subs := make([]Node, len(v.Subs))
		for i, s := range v.Subs {
			subs[i] = cloneNode(s)
		}
		return &ConcatNode{Subs: subs}
	case *AltNode:
		subs := make([]Node, len(v.Subs))
		for i, s := range v.Subs {
			subs[i] = cloneNode(s)
		}
		return &AltNode{Subs: subs}
	case *StarNode:
		return &StarNode{Sub: cloneNode(v.Sub)}
	case *PlusNode:
		return &PlusNode{Sub: cloneNode(v.Sub)}
	case *QuestNode:
		return &QuestNode{Sub: cloneNode(v.Sub)}
	default:
		panic(fmt.Sprintf("regexc: unknown node %T", n))
	}
}

func (p astParser) parseAtom() (Node, error) {
	switch c := p.peekByte(); c {
	case '(':
		p.pos++
		sub, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if p.peekByte() != ')' {
			return nil, p.errf("missing closing parenthesis")
		}
		p.pos++
		return sub, nil
	case ')', '*', '+', '?', '$', '^':
		return nil, p.atomErr(c)
	default:
		cl, err := p.parseSymbols()
		if err != nil {
			return nil, err
		}
		p.positions++
		return &ClassNode{Class: cl}, nil
	}
}

// astGlushkov holds the position sets computed by the construction.
type astGlushkov struct {
	leaves []*ClassNode // position p-1 → leaf
	follow [][]int      // position p-1 → following positions (1-based values)
}

type astPosInfo struct {
	nullable bool
	first    []int
	last     []int
}

// compileAST converts a parsed pattern into a homogeneous NFA. Every
// reporting state carries reportCode.
func compileAST(p *astParsed, reportCode int32) (*nfa.NFA, error) {
	g := &astGlushkov{}
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
func (g *astGlushkov) number(n Node) {
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
func (g *astGlushkov) analyze(n Node) astPosInfo {
	switch v := n.(type) {
	case EmptyNode:
		return astPosInfo{nullable: true}
	case *ClassNode:
		return astPosInfo{first: []int{v.Pos}, last: []int{v.Pos}}
	case *ConcatNode:
		acc := astPosInfo{nullable: true}
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
			acc = astPosInfo{
				nullable: acc.nullable && si.nullable,
				first:    first,
				last:     last,
			}
		}
		return acc
	case *AltNode:
		var acc astPosInfo
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
		return astPosInfo{nullable: true, first: si.first, last: si.last}
	case *PlusNode:
		si := g.analyze(v.Sub)
		for _, l := range si.last {
			g.addFollow(l, si.first)
		}
		return astPosInfo{nullable: si.nullable, first: si.first, last: si.last}
	case *QuestNode:
		si := g.analyze(v.Sub)
		return astPosInfo{nullable: true, first: si.first, last: si.last}
	default:
		panic(fmt.Sprintf("regexc: unknown node %T", n))
	}
}

func (g *astGlushkov) addFollow(pos int, next []int) {
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

// compileASTSet is CompileSet as it was: parse every pattern, compile
// each to its own NFA, then one Union and Validate.
func compileASTSet(patterns []string, opts Options) (*nfa.NFA, error) {
	parsed := make([]*astParsed, len(patterns))
	for i, pat := range patterns {
		p, err := parseAST(pat, opts)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		parsed[i] = p
	}
	parts := make([]*nfa.NFA, len(parsed))
	for i, p := range parsed {
		one, err := compileAST(p, int32(i))
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		parts[i] = one
	}
	out := nfa.New()
	out.Union(parts...)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseClassAST is ParseClass on the tree: one atom, which must be a
// class leaf.
func parseClassAST(s string) (bitvec.Class, error) {
	if s == "*" || s == "." {
		return bitvec.AllSymbols(), nil
	}
	p := astParser{newParser(s, Options{}, nil)}
	n, err := p.parseAtom()
	if err != nil {
		return bitvec.Class{}, err
	}
	if p.pos != len(p.pat) {
		return bitvec.Class{}, p.errf("trailing characters in symbol set")
	}
	cn, ok := n.(*ClassNode)
	if !ok {
		return bitvec.Class{}, fmt.Errorf("regexc: %q is not a symbol set", s)
	}
	return cn.Class, nil
}
