package regexc

import (
	"fmt"
	"strings"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/telemetry"
)

// Options control compilation.
type Options struct {
	// CaseInsensitive folds ASCII letters in literals and classes.
	CaseInsensitive bool
	// DotExcludesNewline makes '.' match any byte except '\n'. The default
	// (false) matches any byte, which is what automata-processing rule sets
	// (Snort, ClamAV) conventionally use.
	DotExcludesNewline bool
	// MaxRepeat caps the n of {m,n} counted repetitions (they are expanded
	// structurally, so this bounds state blow-up). 0 means the default of
	// 256.
	MaxRepeat int
	// Trace, when non-nil, receives CompileSet's "regexc.parse" and
	// "regexc.glushkov" stage spans (wall time, pattern and state counts)
	// — the same trace type a served request is recorded on.
	Trace *telemetry.ReqTrace
}

func (o Options) maxRepeat() int {
	if o.MaxRepeat <= 0 {
		return 256
	}
	return o.MaxRepeat
}

// Parsed is the result of parsing one pattern.
type Parsed struct {
	// Root is the AST.
	Root Node
	// Anchored is true when the pattern began with '^' (match only at the
	// start of the input stream).
	Anchored bool
}

type parser struct {
	pat  string
	pos  int
	opts Options
}

// Parse parses a single pattern.
func Parse(pattern string, opts Options) (*Parsed, error) {
	p := &parser{pat: pattern, opts: opts}
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
	return &Parsed{Root: root, Anchored: anchored}, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pattern: p.pat, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peekByte() byte {
	if p.pos < len(p.pat) {
		return p.pat[p.pos]
	}
	return 0
}

func (p *parser) eof() bool { return p.pos >= len(p.pat) }

func (p *parser) parseAlt() (Node, error) {
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

func (p *parser) parseConcat() (Node, error) {
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

func (p *parser) parseRepeat() (Node, error) {
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

// parseCount parses {m}, {m,}, or {m,n}. Returns ok=false without consuming
// input if the brace does not open a valid counted repetition (it is then
// treated as a literal by parseAtom on the next call).
func (p *parser) parseCount() ([2]int, bool, error) {
	start := p.pos
	p.pos++ // '{'
	m, ok := p.parseInt()
	if !ok {
		p.pos = start
		return [2]int{}, false, nil
	}
	n := m
	unbounded := false
	if p.peekByte() == ',' {
		p.pos++
		if p.peekByte() == '}' {
			unbounded = true
		} else {
			n, ok = p.parseInt()
			if !ok {
				p.pos = start
				return [2]int{}, false, nil
			}
		}
	}
	if p.peekByte() != '}' {
		p.pos = start
		return [2]int{}, false, nil
	}
	p.pos++
	if unbounded {
		n = -1
	}
	if n >= 0 && n < m {
		p.pos = start
		return [2]int{}, false, p.errf("invalid repeat count {%d,%d}", m, n)
	}
	limit := p.opts.maxRepeat()
	if m > limit || n > limit {
		return [2]int{}, false, p.errf("repeat count exceeds limit %d", limit)
	}
	return [2]int{m, n}, true, nil
}

func (p *parser) parseInt() (int, bool) {
	start := p.pos
	v := 0
	for !p.eof() && p.pat[p.pos] >= '0' && p.pat[p.pos] <= '9' {
		v = v*10 + int(p.pat[p.pos]-'0')
		if v > 1<<20 {
			return 0, false
		}
		p.pos++
	}
	return v, p.pos > start
}

// expandCount rewrites atom{m,n} structurally:
//
//	a{3}   → a a a
//	a{2,4} → a a a? a?
//	a{2,}  → a a a*
func (p *parser) expandCount(atom Node, m, n int) (Node, error) {
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

func (p *parser) parseAtom() (Node, error) {
	c := p.peekByte()
	switch c {
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
	case ')':
		return nil, p.errf("unmatched ')'")
	case '*', '+', '?':
		return nil, p.errf("quantifier %q with nothing to repeat", c)
	case '.':
		p.pos++
		cl := bitvec.AllSymbols()
		if p.opts.DotExcludesNewline {
			cl.Remove('\n')
		}
		return &ClassNode{Class: cl}, nil
	case '[':
		return p.parseClass()
	case '\\':
		cl, err := p.parseEscape(false)
		if err != nil {
			return nil, err
		}
		return &ClassNode{Class: p.fold(cl)}, nil
	case '$':
		return nil, p.errf("'$' end anchor is not supported by the streaming automaton model")
	case '^':
		return nil, p.errf("'^' is only supported at the start of the pattern")
	default:
		p.pos++
		return &ClassNode{Class: p.fold(bitvec.ClassOf(c))}, nil
	}
}

// fold applies case-insensitivity to a class.
func (p *parser) fold(c bitvec.Class) bitvec.Class {
	if !p.opts.CaseInsensitive {
		return c
	}
	out := c
	for s := byte('a'); s <= 'z'; s++ {
		if c.Has(s) {
			out.Add(s - 'a' + 'A')
		}
	}
	for s := byte('A'); s <= 'Z'; s++ {
		if c.Has(s) {
			out.Add(s - 'A' + 'a')
		}
	}
	return out
}

// parseEscape handles \-escapes. inClass affects which characters need
// escaping but not the escape forms themselves.
func (p *parser) parseEscape(inClass bool) (bitvec.Class, error) {
	p.pos++ // '\'
	if p.eof() {
		return bitvec.Class{}, p.errf("trailing backslash")
	}
	c := p.pat[p.pos]
	p.pos++
	switch c {
	case 'n':
		return bitvec.ClassOf('\n'), nil
	case 'r':
		return bitvec.ClassOf('\r'), nil
	case 't':
		return bitvec.ClassOf('\t'), nil
	case 'f':
		return bitvec.ClassOf('\f'), nil
	case 'v':
		return bitvec.ClassOf('\v'), nil
	case '0':
		return bitvec.ClassOf(0), nil
	case 'a':
		return bitvec.ClassOf(7), nil
	case 'd':
		return bitvec.ClassRange('0', '9'), nil
	case 'D':
		return bitvec.ClassRange('0', '9').Complement(), nil
	case 'w':
		return wordClass(), nil
	case 'W':
		return wordClass().Complement(), nil
	case 's':
		return spaceClass(), nil
	case 'S':
		return spaceClass().Complement(), nil
	case 'x':
		if p.pos+2 > len(p.pat) {
			return bitvec.Class{}, p.errf(`\x needs two hex digits`)
		}
		hi, ok1 := hexVal(p.pat[p.pos])
		lo, ok2 := hexVal(p.pat[p.pos+1])
		if !ok1 || !ok2 {
			return bitvec.Class{}, p.errf(`invalid \x escape`)
		}
		p.pos += 2
		return bitvec.ClassOf(hi<<4 | lo), nil
	default:
		// Any punctuation escapes to itself; escaping letters/digits that
		// have no meaning is an error to catch typos in rule sets.
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '1' && c <= '9') {
			p.pos--
			return bitvec.Class{}, p.errf(`unknown escape \%c`, c)
		}
		return bitvec.ClassOf(c), nil
	}
}

func wordClass() bitvec.Class {
	c := bitvec.ClassRange('a', 'z')
	c = c.Union(bitvec.ClassRange('A', 'Z'))
	c = c.Union(bitvec.ClassRange('0', '9'))
	c.Add('_')
	return c
}

func spaceClass() bitvec.Class {
	return bitvec.ClassOf(' ', '\t', '\n', '\r', '\f', '\v')
}

// parsePOSIXClass parses [:name:] inside a bracket expression.
func (p *parser) parsePOSIXClass() (bitvec.Class, error) {
	// p.pos is at the inner '['; the name sits between "[:" and ":]".
	rest := strings.Index(p.pat[p.pos+2:], ":]")
	if rest < 0 {
		return bitvec.Class{}, p.errf("unterminated POSIX class")
	}
	name := p.pat[p.pos+2 : p.pos+2+rest]
	p.pos += rest + 4
	switch name {
	case "alpha":
		return bitvec.ClassRange('a', 'z').Union(bitvec.ClassRange('A', 'Z')), nil
	case "digit":
		return bitvec.ClassRange('0', '9'), nil
	case "alnum":
		return bitvec.ClassRange('a', 'z').Union(bitvec.ClassRange('A', 'Z')).Union(bitvec.ClassRange('0', '9')), nil
	case "upper":
		return bitvec.ClassRange('A', 'Z'), nil
	case "lower":
		return bitvec.ClassRange('a', 'z'), nil
	case "space":
		return spaceClass(), nil
	case "xdigit":
		return bitvec.ClassRange('0', '9').Union(bitvec.ClassRange('a', 'f')).Union(bitvec.ClassRange('A', 'F')), nil
	case "punct":
		c := bitvec.ClassRange('!', '/').Union(bitvec.ClassRange(':', '@'))
		c = c.Union(bitvec.ClassRange('[', '`')).Union(bitvec.ClassRange('{', '~'))
		return c, nil
	case "print":
		return bitvec.ClassRange(' ', '~'), nil
	case "graph":
		return bitvec.ClassRange('!', '~'), nil
	case "cntrl":
		c := bitvec.ClassRange(0, 31)
		c.Add(127)
		return c, nil
	case "word":
		return wordClass(), nil
	default:
		return bitvec.Class{}, p.errf("unknown POSIX class [:%s:]", name)
	}
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// parseClass parses a bracket expression.
func (p *parser) parseClass() (Node, error) {
	p.pos++ // '['
	negate := false
	if p.peekByte() == '^' {
		negate = true
		p.pos++
	}
	var cl bitvec.Class
	first := true
	for {
		if p.eof() {
			return nil, p.errf("missing closing ']'")
		}
		c := p.pat[p.pos]
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		// POSIX named class, e.g. [[:digit:]].
		if c == '[' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] == ':' {
			named, err := p.parsePOSIXClass()
			if err != nil {
				return nil, err
			}
			cl = cl.Union(named)
			continue
		}
		var lo bitvec.Class
		if c == '\\' {
			var err error
			lo, err = p.parseEscape(true)
			if err != nil {
				return nil, err
			}
		} else {
			p.pos++
			lo = bitvec.ClassOf(c)
		}
		// Range?
		if p.peekByte() == '-' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] != ']' {
			if lo.Count() != 1 {
				return nil, p.errf("character class range with multi-char lower bound")
			}
			p.pos++ // '-'
			var hi bitvec.Class
			if p.peekByte() == '\\' {
				var err error
				hi, err = p.parseEscape(true)
				if err != nil {
					return nil, err
				}
			} else {
				hi = bitvec.ClassOf(p.pat[p.pos])
				p.pos++
			}
			if hi.Count() != 1 {
				return nil, p.errf("character class range with multi-char upper bound")
			}
			loB, hiB := lo.Symbols()[0], hi.Symbols()[0]
			if hiB < loB {
				return nil, p.errf("inverted character class range %c-%c", loB, hiB)
			}
			cl.AddRange(loB, hiB)
			continue
		}
		cl = cl.Union(lo)
	}
	cl = p.fold(cl)
	if negate {
		cl = cl.Complement()
	}
	if cl.IsEmpty() {
		return nil, p.errf("empty character class")
	}
	return &ClassNode{Class: cl}, nil
}
