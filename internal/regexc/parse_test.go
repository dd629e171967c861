package regexc

import (
	"strings"
	"testing"

	"cacheautomaton/internal/bitvec"
)

func mustParse(t *testing.T, pat string, opts Options) *Parsed {
	t.Helper()
	p, err := Parse(pat, opts)
	if err != nil {
		t.Fatalf("Parse(%q): %v", pat, err)
	}
	return p
}

// onlyClass parses pat and returns its class, failing unless the parse
// is a single position.
func onlyClass(t *testing.T, pat string, opts Options) bitvec.Class {
	t.Helper()
	p := mustParse(t, pat, opts)
	if len(p.s.nodes) != 1 || p.s.nodes[0].op != opClass {
		t.Fatalf("Parse(%q) = %s, want one class", pat, Render(p))
	}
	return p.s.classes[p.s.nodes[0].arg]
}

func TestParseBasicForms(t *testing.T) {
	cases := []struct {
		pat  string
		want string // canonical Render
	}{
		{"abc", "[a][b][c]"},
		{"a|b", "([a]|[b])"},
		{"a*", "([a])*"},
		{"a+", "([a])+"},
		{"a?", "([a])?"},
		{"(ab)*", "([a][b])*"},
		{"a|b|c", "([a]|[b]|[c])"},
		{"[abc]", "[a-c]"},
		{"[a-c]", "[a-c]"},
		{"a{3}", "[a][a][a]"},
		{"a{1,3}", "[a]([a])?([a])?"},
		{"a{0,2}", "([a])?([a])?"},
		{"a{2,}", "[a][a]([a])*"},
		{"a{0,}", "([a])*"},
		{"", "()"},
		{"()", "()"},
		{"a{x}", "[a][{][x][}]"}, // invalid count → literal braces
	}
	for _, tc := range cases {
		p := mustParse(t, tc.pat, Options{})
		if got := Render(p); got != tc.want {
			t.Errorf("Render(Parse(%q)) = %q, want %q", tc.pat, got, tc.want)
		}
	}
}

func TestParseAnchor(t *testing.T) {
	p := mustParse(t, "^ab", Options{})
	if !p.Anchored {
		t.Error("^ab should be anchored")
	}
	p = mustParse(t, "ab", Options{})
	if p.Anchored {
		t.Error("ab should not be anchored")
	}
	if _, err := Parse("a^b", Options{}); err == nil {
		t.Error("mid-pattern '^' should be rejected")
	}
	if _, err := Parse("ab$", Options{}); err == nil {
		t.Error("'$' should be rejected with a clear error")
	} else if !strings.Contains(err.Error(), "not supported") {
		t.Errorf("unexpected error for '$': %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(", ")", "a)", "(a", "*", "+a", "?",
		"[", "[a", "[]", "[z-a]", `\`, `\q`, `\x1`, `\xgg`,
		"a{3,2}", "a{999}",
	}
	for _, pat := range bad {
		if _, err := Parse(pat, Options{MaxRepeat: 64}); err == nil {
			t.Errorf("Parse(%q) should fail", pat)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("abc(", Options{})
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Pos != 4 {
		t.Errorf("error position = %d, want 4", pe.Pos)
	}
}

func TestParseClasses(t *testing.T) {
	cases := []struct {
		pat    string
		has    []byte
		hasNot []byte
		count  int // -1 to skip
	}{
		{"[abc]", []byte{'a', 'b', 'c'}, []byte{'d'}, 3},
		{"[^abc]", []byte{'d', 0, 255}, []byte{'a', 'b', 'c'}, 253},
		{"[a-z0-9]", []byte{'a', 'z', '5'}, []byte{'A'}, 36},
		{"[]a]", []byte{']', 'a'}, []byte{'b'}, 2}, // ']' first is literal
		{"[^]]", []byte{'a'}, []byte{']'}, 255},    // negated literal ']'
		{"[-a]", []byte{'-', 'a'}, []byte{'b'}, 2}, // leading '-' literal
		{"[a-]", []byte{'-', 'a'}, []byte{'b'}, 2}, // trailing '-' literal
		{`[\]]`, []byte{']'}, []byte{'a'}, 1},
		{`[\d]`, []byte{'0', '9'}, []byte{'a'}, 10},
		{`[\x00-\x1f]`, []byte{0, 31}, []byte{32}, 32},
		{`[\n\t]`, []byte{'\n', '\t'}, []byte{' '}, 2},
		{`[a\-z]`, []byte{'a', '-', 'z'}, []byte{'b'}, 3},
	}
	for _, tc := range cases {
		cl := onlyClass(t, tc.pat, Options{})
		for _, b := range tc.has {
			if !cl.Has(b) {
				t.Errorf("%q should match %q", tc.pat, b)
			}
		}
		for _, b := range tc.hasNot {
			if cl.Has(b) {
				t.Errorf("%q should not match %q", tc.pat, b)
			}
		}
		if tc.count >= 0 && cl.Count() != tc.count {
			t.Errorf("%q class size = %d, want %d", tc.pat, cl.Count(), tc.count)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	cases := map[string]byte{
		`\n`:   '\n',
		`\t`:   '\t',
		`\r`:   '\r',
		`\0`:   0,
		`\x41`: 'A',
		`\xff`: 0xff,
		`\.`:   '.',
		`\\`:   '\\',
		`\[`:   '[',
		`\*`:   '*',
		`\{`:   '{',
	}
	for pat, want := range cases {
		cl := onlyClass(t, pat, Options{})
		if cl.Count() != 1 || !cl.Has(want) {
			t.Errorf("Parse(%q) = %v, want single %q", pat, cl, want)
		}
	}
	// Predefined classes.
	for pat, wantCount := range map[string]int{`\d`: 10, `\D`: 246, `\w`: 63, `\W`: 193, `\s`: 6, `\S`: 250} {
		if cl := onlyClass(t, pat, Options{}); cl.Count() != wantCount {
			t.Errorf("Parse(%q) class size = %d, want %d", pat, cl.Count(), wantCount)
		}
	}
}

// TestSpaceClassIncludesVT pins \s to PCRE's six bytes, vertical tab
// included. Go's RE2 \s leaves \v out, so the differential generator
// keeps \v out of its inputs.
func TestSpaceClassIncludesVT(t *testing.T) {
	want := bitvec.ClassOf(' ', '\t', '\n', '\r', '\f', '\v')
	for _, pat := range []string{`\s`, `[\s]`, `[[:space:]]`} {
		if cl := onlyClass(t, pat, Options{}); cl != want {
			t.Errorf("Parse(%q) = %v, want %v", pat, cl, want)
		}
	}
}

func TestParseDot(t *testing.T) {
	if onlyClass(t, ".", Options{}) != bitvec.AllSymbols() {
		t.Error("default '.' should match all 256 symbols")
	}
	cl := onlyClass(t, ".", Options{DotExcludesNewline: true})
	if cl.Has('\n') || cl.Count() != 255 {
		t.Error("DotExcludesNewline '.' wrong")
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	p := mustParse(t, "aB", Options{CaseInsensitive: true})
	if got := Render(p); got != "[Aa][Bb]" {
		t.Fatalf("Render(Parse(aB)) = %s, want two folded classes", got)
	}
	c0, c1 := p.s.classes[0], p.s.classes[1]
	if !c0.Has('a') || !c0.Has('A') || c0.Count() != 2 {
		t.Errorf("fold 'a' wrong: %v", c0)
	}
	if !c1.Has('b') || !c1.Has('B') || c1.Count() != 2 {
		t.Errorf("fold 'B' wrong: %v", c1)
	}
	cl := onlyClass(t, "[a-c]", Options{CaseInsensitive: true})
	if !cl.Has('B') || cl.Count() != 6 {
		t.Errorf("fold class wrong: %v", cl)
	}
}

func TestMaxRepeatLimit(t *testing.T) {
	if _, err := Parse("a{100}", Options{MaxRepeat: 50}); err == nil {
		t.Error("repeat over limit should fail")
	}
	if _, err := Parse("a{100}", Options{MaxRepeat: 100}); err != nil {
		t.Errorf("repeat at limit should parse: %v", err)
	}
	// Default limit is 256.
	if _, err := Parse("a{256}", Options{}); err != nil {
		t.Errorf("a{256} should parse with default limit: %v", err)
	}
	if _, err := Parse("a{257}", Options{}); err == nil {
		t.Error("a{257} should exceed default limit")
	}
}

func TestPOSIXClasses(t *testing.T) {
	cases := []struct {
		pat   string
		has   []byte
		not   []byte
		count int
	}{
		{"[[:digit:]]", []byte{'0', '9'}, []byte{'a'}, 10},
		{"[[:alpha:]]", []byte{'a', 'Z'}, []byte{'0'}, 52},
		{"[[:alnum:]]", []byte{'a', 'Z', '5'}, []byte{'_'}, 62},
		{"[[:xdigit:]]", []byte{'f', 'F', '0'}, []byte{'g'}, 22},
		{"[[:space:]]", []byte{' ', '\t'}, []byte{'x'}, 6},
		{"[[:upper:][:digit:]]", []byte{'A', '7'}, []byte{'a'}, 36},
		{"[^[:print:]]", []byte{0, 200}, []byte{'a', ' '}, 161},
		{"[[:punct:]]", []byte{'!', '~', '@'}, []byte{'a', ' '}, 32},
	}
	for _, tc := range cases {
		cl := onlyClass(t, tc.pat, Options{})
		for _, b := range tc.has {
			if !cl.Has(b) {
				t.Errorf("%q should include %q", tc.pat, b)
			}
		}
		for _, b := range tc.not {
			if cl.Has(b) {
				t.Errorf("%q should exclude %q", tc.pat, b)
			}
		}
		if tc.count > 0 && cl.Count() != tc.count {
			t.Errorf("%q size = %d, want %d", tc.pat, cl.Count(), tc.count)
		}
	}
	for _, bad := range []string{"[[:nope:]]", "[[:digit]", "[[:"} {
		if _, err := Parse(bad, Options{}); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}
