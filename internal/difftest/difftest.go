// Package difftest is the differential-correctness harness shared by the
// library and serving tests: a deterministic generator of regex patterns
// in the subset that both the cache-automaton compiler and Go's regexp
// package support, random inputs biased to hit those patterns, and a Go
// regexp reference oracle that computes the exact report set the automaton
// must emit.
//
// The automaton's match semantics differ from regexp.FindAll: every
// position where any substring match of any pattern *ends* is reported
// (overlapping and nested matches included), and a match carries the
// offset of its last symbol. The oracle therefore asks, for each prefix
// input[:e], whether `(?:pattern)$` matches it — true exactly when some
// match ends at offset e-1 — which sidesteps leftmost-first semantics
// entirely.
package difftest

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// Report is one expected or observed match event: the pattern's index in
// the compiled set and the input offset of the match's last symbol.
type Report struct {
	Pattern int
	Offset  int64
}

// literalAlphabet is the character pool for generated literals and
// classes. It is pure ASCII so Go's rune-oriented regexp and the
// automaton's byte-oriented matcher agree, and it contains no regexp
// metacharacters so literals need no escaping in either dialect.
const literalAlphabet = "abcxyz012 "

// inputAlphabet additionally exercises '\n' (the automaton's '.' matches
// any byte by default; the oracle compiles with (?s) to agree).
const inputAlphabet = literalAlphabet + "\n"

// escapeAlphabet is the input pool for EscapePatterns: the shared
// alphabet plus upper case for case folding, '_' for \w, and the
// whitespace both dialects' \s hold. '\v' is left out: regexc's \s follows
// PCRE and holds it, Go's RE2 \s does not.
const escapeAlphabet = inputAlphabet + "ABCXYZ_\t\r\f"

// Gen is a deterministic pattern/input generator.
type Gen struct {
	rng *rand.Rand
	// escapes lets genAtom also draw escapes and upper-case literals; it
	// is set only while EscapePatterns runs, so the other streams draw
	// what they always drew.
	escapes bool
}

// Flags are the compile options a generated case runs under.
type Flags struct {
	CaseInsensitive    bool
	DotExcludesNewline bool
}

// New returns a generator seeded for reproducibility.
func New(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// Pattern generates one pattern in the shared subset: literals, classes
// (including ranges and negation), '.', grouping, alternation, and the
// ?/*/+/{m,n} quantifiers, with '^' anchoring on some patterns. The
// pattern is non-nullable by construction (the automaton compiler rejects
// patterns that match the empty string).
func (g *Gen) Pattern() string {
	var b strings.Builder
	if g.rng.Intn(5) == 0 {
		b.WriteByte('^')
	}
	g.genAlt(&b, 2)
	return b.String()
}

// BoundedWindow is the guaranteed maximum match length of a
// BoundedPattern, and the window WindowedReports needs to stay exact.
const BoundedWindow = 256

// BoundedPattern generates a pattern whose matches are at most
// BoundedWindow bytes long: the unbounded quantifiers (*, +, {m,}) are
// excluded and nesting is kept shallow, so the worst case is 4 atoms × 3
// repetitions of a group of 4 atoms × 3 repetitions = 144 bytes. Bounded
// patterns make the oracle linear on long inputs via WindowedReports.
func (g *Gen) BoundedPattern() string {
	var b strings.Builder
	if g.rng.Intn(8) == 0 {
		b.WriteByte('^')
	}
	g.genBoundedConcat(&b, 1)
	return b.String()
}

// genBoundedConcat emits 1–4 atoms with only bounded quantifiers
// (?, {m}, {m,n}; n ≤ 3), at least one non-nullable.
func (g *Gen) genBoundedConcat(b *strings.Builder, depth int) {
	n := 1 + g.rng.Intn(4)
	required := g.rng.Intn(n)
	for i := 0; i < n; i++ {
		g.genBoundedAtom(b, depth)
		switch choice := g.rng.Intn(6); {
		case choice == 0 && i != required:
			b.WriteByte('?')
		case choice == 1:
			m := g.rng.Intn(3)
			if i == required && m == 0 {
				m = 1
			}
			fmt.Fprintf(b, "{%d,%d}", m, m+g.rng.Intn(3-m+1))
		case choice == 2:
			fmt.Fprintf(b, "{%d}", 1+g.rng.Intn(3))
		}
	}
}

func (g *Gen) genBoundedAtom(b *strings.Builder, depth int) {
	max := 4
	if depth <= 0 {
		max = 3
	}
	switch g.rng.Intn(max) {
	case 0:
		b.WriteByte(literalAlphabet[g.rng.Intn(len(literalAlphabet))])
	case 1:
		b.WriteByte('.')
	case 2:
		g.genClass(b)
	default:
		b.WriteByte('(')
		g.genBoundedConcat(b, depth-1)
		if g.rng.Intn(3) == 0 {
			b.WriteByte('|')
			g.genBoundedConcat(b, depth-1)
		}
		b.WriteByte(')')
	}
}

// EscapePatterns generates between 1 and max patterns like Patterns,
// whose atoms also draw \d \w \s, \xHH escapes of ASCII bytes and
// upper-case literals, and the flags to compile them under.
func (g *Gen) EscapePatterns(max int) ([]string, Flags) {
	g.escapes = true
	defer func() { g.escapes = false }()
	pats := g.Patterns(max)
	return pats, Flags{CaseInsensitive: g.rng.Intn(2) == 0, DotExcludesNewline: g.rng.Intn(2) == 0}
}

// genEscape emits a predefined class, an \xHH escape of a byte inputs
// hold (below 0x80: Go reads \xHH as a rune, so \xff would be U+00FF),
// or an upper-case literal.
func (g *Gen) genEscape(b *strings.Builder) {
	switch g.rng.Intn(3) {
	case 0:
		b.WriteString([]string{`\d`, `\w`, `\s`}[g.rng.Intn(3)])
	case 1:
		fmt.Fprintf(b, `\x%02x`, escapeAlphabet[g.rng.Intn(len(escapeAlphabet))])
	default:
		b.WriteByte("ABCXYZ"[g.rng.Intn(6)])
	}
}

// Patterns generates between 1 and max patterns.
func (g *Gen) Patterns(max int) []string {
	n := 1 + g.rng.Intn(max)
	out := make([]string, n)
	for i := range out {
		out[i] = g.Pattern()
	}
	return out
}

// genAlt emits 1–3 '|'-joined concatenations. Every branch is
// non-nullable, so the alternation is too.
func (g *Gen) genAlt(b *strings.Builder, depth int) {
	branches := 1
	if depth > 0 && g.rng.Intn(3) == 0 {
		branches += 1 + g.rng.Intn(2)
	}
	for i := 0; i < branches; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		g.genConcat(b, depth)
	}
}

// genConcat emits 1–4 quantified atoms and guarantees at least one of
// them cannot match empty.
func (g *Gen) genConcat(b *strings.Builder, depth int) {
	n := 1 + g.rng.Intn(4)
	required := g.rng.Intn(n) // this element gets a non-nullifying quantifier
	for i := 0; i < n; i++ {
		g.genRepeat(b, depth, i == required)
	}
}

// genRepeat emits one atom with an optional quantifier. When required is
// true the quantifier keeps the atom non-nullable.
func (g *Gen) genRepeat(b *strings.Builder, depth int, required bool) {
	g.genAtom(b, depth)
	choice := g.rng.Intn(8)
	switch {
	case choice == 0 && !required:
		b.WriteByte('?')
	case choice == 1 && !required:
		b.WriteByte('*')
	case choice == 2:
		b.WriteByte('+')
	case choice == 3:
		m := g.rng.Intn(3) // 0..2
		if required && m == 0 {
			m = 1
		}
		n := m + g.rng.Intn(3)
		fmt.Fprintf(b, "{%d,%d}", m, n)
	case choice == 4:
		fmt.Fprintf(b, "{%d}", 1+g.rng.Intn(3))
	}
}

// genAtom emits a literal, class, dot, or (below the depth limit) a
// parenthesized alternation. All atoms are non-nullable.
func (g *Gen) genAtom(b *strings.Builder, depth int) {
	if g.escapes && g.rng.Intn(3) == 0 {
		g.genEscape(b)
		return
	}
	max := 4
	if depth <= 0 {
		max = 3
	}
	switch g.rng.Intn(max) {
	case 0:
		b.WriteByte(literalAlphabet[g.rng.Intn(len(literalAlphabet))])
	case 1:
		b.WriteByte('.')
	case 2:
		g.genClass(b)
	default:
		b.WriteByte('(')
		g.genAlt(b, depth-1)
		b.WriteByte(')')
	}
}

// genClass emits a character class: 1–3 members drawn from single
// characters and ranges, optionally negated.
func (g *Gen) genClass(b *strings.Builder) {
	b.WriteByte('[')
	if g.rng.Intn(4) == 0 {
		b.WriteByte('^')
	}
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		if g.rng.Intn(3) == 0 {
			// A range within one of the contiguous runs a-z / 0-2.
			lo := byte('a') + byte(g.rng.Intn(20))
			hi := lo + 1 + byte(g.rng.Intn(5))
			if hi > 'z' {
				hi = 'z'
			}
			b.WriteByte(lo)
			b.WriteByte('-')
			b.WriteByte(hi)
		} else {
			c := literalAlphabet[g.rng.Intn(len(literalAlphabet))]
			if c == ' ' {
				c = 'q' // keep classes visually unambiguous
			}
			b.WriteByte(c)
		}
	}
	b.WriteByte(']')
}

// Input generates n random bytes over the shared input alphabet.
func (g *Gen) Input(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = inputAlphabet[g.rng.Intn(len(inputAlphabet))]
	}
	return out
}

// EscapeInput generates n random bytes over the alphabet EscapePatterns
// cases run on.
func (g *Gen) EscapeInput(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = escapeAlphabet[g.rng.Intn(len(escapeAlphabet))]
	}
	return out
}

// Chunks splits input at random boundaries (including possible empty
// chunks) for stream-feeding tests. The concatenation always equals
// input.
func (g *Gen) Chunks(input []byte) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(input); {
		n := g.rng.Intn(len(input) - pos + 1)
		out = append(out, input[pos:pos+n])
		pos += n
		if g.rng.Intn(8) == 0 {
			out = append(out, nil) // empty feed
		}
	}
	return out
}

// Oracle is a compiled Go-regexp reference for one pattern set.
type Oracle struct {
	res      []*regexp.Regexp
	anchored []bool
}

// NewOracle compiles each pattern with Go's regexp package into its
// end-anchored oracle form. (?s) aligns '.' with the automaton's
// any-byte default.
func NewOracle(patterns []string) (*Oracle, error) {
	return NewOracleFlags(patterns, Flags{})
}

// NewOracleFlags is NewOracle for patterns compiled under f:
// CaseInsensitive is Go's (?i), and DotExcludesNewline drops the (?s).
func NewOracleFlags(patterns []string, f Flags) (*Oracle, error) {
	flags := "s"
	if f.DotExcludesNewline {
		flags = ""
	}
	if f.CaseInsensitive {
		flags += "i"
	}
	if flags != "" {
		flags = "(?" + flags + ")"
	}
	o := &Oracle{
		res:      make([]*regexp.Regexp, len(patterns)),
		anchored: make([]bool, len(patterns)),
	}
	for i, p := range patterns {
		var expr string
		if core, ok := strings.CutPrefix(p, "^"); ok {
			// Anchored: the whole prefix must be one match from offset 0.
			o.anchored[i] = true
			expr = flags + "^(?:" + core + ")$"
		} else {
			expr = flags + "(?:" + p + ")$"
		}
		re, err := regexp.Compile(expr)
		if err != nil {
			return nil, fmt.Errorf("difftest: pattern %d %q: %w", i, p, err)
		}
		o.res[i] = re
	}
	return o, nil
}

// WindowedReports is the linear-time oracle for BoundedPattern sets: with
// every match at most window bytes long, a match ending at offset e-1 must
// start within the last window bytes, so testing the end-anchored regex
// against input[e-window:e] is exact and the whole scan is O(len·window)
// instead of the full prefix scan's O(len²). Anchored patterns can only
// match prefixes no longer than window, so their scan stops there.
func (o *Oracle) WindowedReports(input []byte, window int) map[Report]bool {
	out := make(map[Report]bool)
	for i, re := range o.res {
		limit := len(input)
		if o.anchored[i] && limit > window {
			limit = window
		}
		for e := 1; e <= limit; e++ {
			lo := 0
			if !o.anchored[i] && e > window {
				lo = e - window
			}
			if re.Match(input[lo:e]) {
				out[Report{Pattern: i, Offset: int64(e - 1)}] = true
			}
		}
	}
	return out
}

// Reports returns the deduplicated report set the automaton must emit for
// input: pattern i reports at offset e-1 exactly when the oracle matches
// the prefix input[:e] (for anchored patterns, when it matches the whole
// prefix).
func (o *Oracle) Reports(input []byte) map[Report]bool {
	out := make(map[Report]bool)
	for i, re := range o.res {
		for e := 1; e <= len(input); e++ {
			if re.Match(input[:e]) {
				out[Report{Pattern: i, Offset: int64(e - 1)}] = true
			}
		}
	}
	return out
}

// Reference is the one-call form: compile the oracle and compute the
// report set.
func Reference(patterns []string, input []byte) (map[Report]bool, error) {
	o, err := NewOracle(patterns)
	if err != nil {
		return nil, err
	}
	return o.Reports(input), nil
}

// Set deduplicates observed reports for comparison against the oracle.
func Set(reports []Report) map[Report]bool {
	out := make(map[Report]bool, len(reports))
	for _, r := range reports {
		out[r] = true
	}
	return out
}

// Diff renders the symmetric difference of two report sets, empty when
// they agree. Useful in t.Fatalf so a failing case shows exactly which
// (pattern, offset) events diverged.
func Diff(want, got map[Report]bool) string {
	var missing, extra []Report
	for r := range want {
		if !got[r] {
			missing = append(missing, r)
		}
	}
	for r := range got {
		if !want[r] {
			extra = append(extra, r)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	less := func(s []Report) func(int, int) bool {
		return func(a, b int) bool {
			if s[a].Pattern != s[b].Pattern {
				return s[a].Pattern < s[b].Pattern
			}
			return s[a].Offset < s[b].Offset
		}
	}
	sort.Slice(missing, less(missing))
	sort.Slice(extra, less(extra))
	return fmt.Sprintf("missing %v, extra %v", missing, extra)
}
