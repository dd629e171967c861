// Package regexc compiles regular expressions to homogeneous NFAs via the
// Glushkov (position) construction. Glushkov automata are naturally in ANML
// form — every state corresponds to one position in the pattern and carries
// that position's symbol class — which is exactly the STE representation the
// Cache Automaton maps into SRAM arrays (paper §2.1). This plays the role
// of the regex front-end used to produce the Regex-suite benchmarks.
//
// A parse is flat: a postfix slab of nodes (an operator and a class index
// or operand count) beside one class table, so a counted repetition
// copies its atom's node range. One Glushkov pass runs over the slab with
// a stack, keeping each subexpression's first and last sets as spans of
// one position arena and its follow pairs in one edge list, which is
// grouped, sorted and de-duplicated into the states' Out lists at the
// end. A star skips the pairs an earlier star already added, and the
// list drops its duplicates whenever it doubles, so repeated stars
// cannot grow it past a small multiple of the distinct follows.
// CompileSet parses a whole rule set into one slab and writes it as one
// NFA in that one pass.
package regexc

import (
	"fmt"
	"math/bits"
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
	// MaxRepeat caps the n of {m,n} counted repetitions. They are expanded
	// structurally, so it also bounds state blow-up: a pattern whose
	// repetitions would expand it past (MaxRepeat+1)·len(pattern)
	// positions is a ParseError. Only a repetition of a repetition can
	// reach that bound. 0 means the default of 256.
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

// op is the operator of one slab node.
type op uint8

const (
	opClass  op = iota // one position; arg indexes the class table
	opEmpty            // the empty string
	opConcat           // the arg operands before it, in sequence
	opAlt              // any one of the arg operands before it
	opStar             // zero or more of the operand before it
	opPlus             // one or more of the operand before it
	opQuest            // zero or one of the operand before it
)

// node is one entry of a postfix parse slab. An operator's operands are
// the subtrees that end just before it: one for the quantifiers, arg for
// opConcat and opAlt.
type node struct {
	op  op
	arg int32
}

// slab holds one or more parsed patterns back to back in postfix order,
// with one class table for all of them. Class nodes are the Glushkov
// positions, numbered in slab order.
type slab struct {
	nodes     []node
	classes   []bitvec.Class
	pats      []pattern
	positions int
}

// pattern is one pattern's extent in a slab.
type pattern struct {
	end      int // one past the pattern's root node
	anchored bool
}

// Parsed is the result of parsing one pattern: its postfix slab.
type Parsed struct {
	// Anchored is true when the pattern began with '^' (match only at the
	// start of the input stream).
	Anchored bool
	s        slab
}

type parser struct {
	pat  string
	pos  int
	opts Options
	s    *slab
	// positions counts the pattern's positions so far; a counted
	// repetition may not take it past limit.
	positions, limit int
}

// maxCount is the largest count parseInt reads; it caps the expansion
// bound however large Options.MaxRepeat is.
const maxCount = 1 << 20

func newParser(pattern string, opts Options, s *slab) *parser {
	p := &parser{opts: opts, s: s}
	p.reset(pattern)
	return p
}

// reset readies p to parse pattern into its slab.
func (p *parser) reset(pattern string) {
	p.pat, p.pos, p.positions = pattern, 0, 0
	p.limit = (min(p.opts.maxRepeat(), maxCount) + 1) * len(pattern)
}

// newSlab sizes a slab for patterns of size bytes in all. Without
// counted repetition a pattern has at most one position per byte, and
// about one node per byte; the slices grow past that when they must.
func newSlab(size, patterns int) slab {
	return slab{
		nodes:   make([]node, 0, size+size/4+patterns),
		classes: make([]bitvec.Class, 0, size),
		pats:    make([]pattern, 0, patterns),
	}
}

// Parse parses a single pattern.
func Parse(pattern string, opts Options) (*Parsed, error) {
	out := &Parsed{s: newSlab(len(pattern), 1)}
	if err := newParser(pattern, opts, &out.s).parse(); err != nil {
		return nil, err
	}
	out.Anchored = out.s.pats[0].anchored
	return out, nil
}

// parse appends the pattern to the slab.
func (p *parser) parse() error {
	anchored := false
	if p.peekByte() == '^' {
		anchored = true
		p.pos++
	}
	if err := p.parseAlt(); err != nil {
		return err
	}
	if p.pos != len(p.pat) {
		return p.errf("unexpected %q", p.pat[p.pos])
	}
	p.s.pats = append(p.s.pats, pattern{end: len(p.s.nodes), anchored: anchored})
	p.s.positions += p.positions
	return nil
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

func (p *parser) emit(o op, arg int) {
	p.s.nodes = append(p.s.nodes, node{op: o, arg: int32(arg)})
}

// emitClass appends one position matching cl.
func (p *parser) emitClass(cl bitvec.Class) {
	p.emit(opClass, len(p.s.classes))
	p.s.classes = append(p.s.classes, cl)
	p.positions++
}

// emitList closes a concatenation or alternation of n operands: nothing
// for one, the empty string for none.
func (p *parser) emitList(o op, n int) {
	switch n {
	case 0:
		p.emit(opEmpty, 0)
	case 1:
	default:
		p.emit(o, n)
	}
}

func (p *parser) parseAlt() error {
	if err := p.parseConcat(); err != nil {
		return err
	}
	n := 1
	for p.peekByte() == '|' {
		p.pos++
		if err := p.parseConcat(); err != nil {
			return err
		}
		n++
	}
	p.emitList(opAlt, n)
	return nil
}

func (p *parser) parseConcat() error {
	n := 0
	for !p.eof() {
		c := p.peekByte()
		if c == '|' || c == ')' {
			break
		}
		if err := p.parseRepeat(); err != nil {
			return err
		}
		n++
	}
	p.emitList(opConcat, n)
	return nil
}

func (p *parser) parseRepeat() error {
	start := len(p.s.nodes)
	if err := p.parseAtom(); err != nil {
		return err
	}
	for !p.eof() {
		switch p.peekByte() {
		case '*':
			p.pos++
			p.emit(opStar, 0)
		case '+':
			p.pos++
			p.emit(opPlus, 0)
		case '?':
			p.pos++
			p.emit(opQuest, 0)
		case '{':
			rep, ok, err := p.parseCount()
			if err != nil {
				return err
			}
			if !ok {
				return nil // literal '{' was consumed as an atom earlier
			}
			if err := p.expandCount(start, rep[0], rep[1]); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
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
		if v > maxCount {
			return 0, false
		}
		p.pos++
	}
	return v, p.pos > start
}

// copies is how many times atom{m,n} writes its atom: m, then n-m
// optional ones, or one starred one when n is -1 (unbounded).
func copies(m, n int) int {
	if n == -1 {
		return m + 1
	}
	return n
}

// grow admits an expansion that writes an atom of atomPositions
// positions k times in place of once, or refuses it when the pattern
// would pass its position limit.
func (p *parser) grow(atomPositions, k int) error {
	if p.positions+(k-1)*atomPositions > p.limit {
		return p.errf("repeat expands the pattern past %d positions", p.limit)
	}
	p.positions += (k - 1) * atomPositions
	return nil
}

// expandCount rewrites the atom at nodes[start:]{m,n} structurally, each
// copy a copy of the atom's node range:
//
//	a{3}   → a a a
//	a{2,4} → a a a? a?
//	a{2,}  → a a a*
//
// An atom without positions matches only the empty string, which any
// count of it matches too, so it stays as it is.
func (p *parser) expandCount(start, m, n int) error {
	atom := p.s.nodes[start:]
	positions := 0
	for _, nd := range atom {
		if nd.op == opClass {
			positions++
		}
	}
	if positions == 0 {
		return nil
	}
	k := copies(m, n)
	if err := p.grow(positions, k); err != nil {
		return err
	}
	if k == 0 {
		p.s.nodes = p.s.nodes[:start]
		p.emit(opEmpty, 0)
		return nil
	}
	end := len(p.s.nodes)
	for i := 0; i < k; i++ {
		if i > 0 {
			p.s.nodes = append(p.s.nodes, p.s.nodes[start:end]...)
		}
		switch {
		case i >= m && n == -1:
			p.emit(opStar, 0)
		case i >= m:
			p.emit(opQuest, 0)
		}
	}
	p.emitList(opConcat, k)
	return nil
}

func (p *parser) parseAtom() error {
	switch c := p.peekByte(); c {
	case '(':
		p.pos++
		if err := p.parseAlt(); err != nil {
			return err
		}
		if p.peekByte() != ')' {
			return p.errf("missing closing parenthesis")
		}
		p.pos++
		return nil
	case ')', '*', '+', '?', '$', '^':
		return p.atomErr(c)
	default:
		cl, err := p.parseSymbols()
		if err != nil {
			return err
		}
		p.emitClass(cl)
		return nil
	}
}

// atomErr is the error for a byte that cannot start an atom.
func (p *parser) atomErr(c byte) error {
	switch c {
	case ')':
		return p.errf("unmatched ')'")
	case '$':
		return p.errf("'$' end anchor is not supported by the streaming automaton model")
	case '^':
		return p.errf("'^' is only supported at the start of the pattern")
	default:
		return p.errf("quantifier %q with nothing to repeat", c)
	}
}

// parseSymbols parses an atom that is one symbol class: '.', a bracket
// expression, an escape or a literal byte.
func (p *parser) parseSymbols() (bitvec.Class, error) {
	switch c := p.peekByte(); c {
	case '.':
		p.pos++
		cl := bitvec.AllSymbols()
		if p.opts.DotExcludesNewline {
			cl.Remove('\n')
		}
		return cl, nil
	case '[':
		return p.parseClass()
	case '\\':
		cl, err := p.parseEscape(false)
		if err != nil {
			return bitvec.Class{}, err
		}
		return p.fold(cl), nil
	default:
		p.pos++
		return p.fold(bitvec.ClassOf(c)), nil
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

// firstSymbol is the lowest symbol of a non-empty class.
func firstSymbol(c bitvec.Class) byte {
	w := 0
	for c[w] == 0 {
		w++
	}
	return byte(w*64 + bits.TrailingZeros64(c[w]))
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
func (p *parser) parseClass() (bitvec.Class, error) {
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
			return bitvec.Class{}, p.errf("missing closing ']'")
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
				return bitvec.Class{}, err
			}
			cl = cl.Union(named)
			continue
		}
		var lo bitvec.Class
		if c == '\\' {
			var err error
			lo, err = p.parseEscape(true)
			if err != nil {
				return bitvec.Class{}, err
			}
		} else {
			p.pos++
			lo = bitvec.ClassOf(c)
		}
		// Range?
		if p.peekByte() == '-' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] != ']' {
			if lo.Count() != 1 {
				return bitvec.Class{}, p.errf("character class range with multi-char lower bound")
			}
			p.pos++ // '-'
			var hi bitvec.Class
			if p.peekByte() == '\\' {
				var err error
				hi, err = p.parseEscape(true)
				if err != nil {
					return bitvec.Class{}, err
				}
			} else {
				hi = bitvec.ClassOf(p.pat[p.pos])
				p.pos++
			}
			if hi.Count() != 1 {
				return bitvec.Class{}, p.errf("character class range with multi-char upper bound")
			}
			loB, hiB := firstSymbol(lo), firstSymbol(hi)
			if hiB < loB {
				return bitvec.Class{}, p.errf("inverted character class range %c-%c", loB, hiB)
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
		return bitvec.Class{}, p.errf("empty character class")
	}
	return cl, nil
}

// Render returns a canonical textual form of a parse (heavily
// parenthesized; used in error messages and tests).
func Render(p *Parsed) string {
	var stack []string
	for _, nd := range p.s.nodes {
		top := len(stack) - 1
		switch nd.op {
		case opClass:
			stack = append(stack, p.s.classes[nd.arg].String())
		case opEmpty:
			stack = append(stack, "()")
		case opStar:
			stack[top] = "(" + stack[top] + ")*"
		case opPlus:
			stack[top] = "(" + stack[top] + ")+"
		case opQuest:
			stack[top] = "(" + stack[top] + ")?"
		case opConcat, opAlt:
			k := len(stack) - int(nd.arg)
			s := strings.Join(stack[k:], "")
			if nd.op == opAlt {
				s = "(" + strings.Join(stack[k:], "|") + ")"
			}
			stack = append(stack[:k], s)
		}
	}
	return stack[0]
}

// ParseError describes a syntax error with the byte offset in the pattern.
type ParseError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("regexc: parse error at offset %d in %q: %s", e.Pos, e.Pattern, e.Msg)
}
