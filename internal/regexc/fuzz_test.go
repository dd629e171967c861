package regexc

import (
	"fmt"
	"testing"

	"cacheautomaton/internal/nfa"
)

// FuzzParse drives the parser + Glushkov construction with arbitrary
// pattern bytes: no panics, and every accepted pattern must compile to a
// valid NFA that survives a short simulation.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"abc", "a|b", "(a+b)*c", "[a-z]{2,4}", `\x41[\d]`, "^x.y$",
		"[[:alpha:]]+", "a{3,}", "((((a))))", "[^\\n]*q", "|||", "[]a]",
		"a**", "(?", "{3}", `\`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		p, err := Parse(pattern, Options{MaxRepeat: 64})
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Render must not panic either.
		_ = Render(p)
		a, err := CompileParsed(p, 1)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("pattern %q compiled to invalid NFA: %v", pattern, err)
		}
		// The automaton must be executable.
		nfa.RunAll(a, []byte("abcxyz0123abcxyz"))
	})
}

// FuzzParseClass drives the standalone symbol-set parser (the ANML
// symbol-set attribute path) and holds it to the tree parser's answer.
func FuzzParseClass(f *testing.F) {
	for _, seed := range []string{"[a-z]", "a", `\x00`, "*", "[^x]", "[]", "(a)", "((b))", "(ab)", "()", "(a{2})", "([a-c]{1})", "+", "", "ab", `\q`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cl, err := ParseClass(s)
		want, wantErr := parseClassAST(s)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || cl != want {
			t.Fatalf("ParseClass(%q) = %v, %v; oracle %v, %v", s, cl, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if cl.IsEmpty() {
			t.Fatalf("ParseClass(%q) accepted an empty class", s)
		}
	})
}
