package regexc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cacheautomaton/internal/nfa"
)

// coldShaped is a rule set of the benchmark's compile-cold shape: n rules
// cycling through a literal path, a counted class, a five-way
// alternation behind a shared prefix, and a ".*" gap.
func coldShaped(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	word := func(lo, hi int) string {
		b := make([]byte, lo+rng.Intn(hi-lo+1))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	rules := make([]string, n)
	for i := range rules {
		switch i % 4 {
		case 0:
			rules[i] = "/" + word(5, 9) + "/" + word(8, 14) + `\.` + word(3, 3)
		case 1:
			rules[i] = word(8, 14) + "=[0-9a-f]{8}"
		case 2:
			alts := make([]string, 5)
			for a := range alts {
				alts[a] = word(6, 10)
			}
			rules[i] = word(8, 12) + "(" + strings.Join(alts, "|") + ")"
		default:
			rules[i] = word(6, 10) + ".*" + word(6, 10)
		}
	}
	return rules
}

// edgeShapes are patterns whose position sets are not one operand's:
// nullable operands on either side of a concatenation, nested and
// repeated stars, empty groups and alternatives, counted groups, classes,
// escapes and anchors — and some that every compiler must refuse.
var edgeShapes = []string{
	"a", "abc", "a|b", "a*b", "ab*", "a?b?c", "a?b?c?d", "(a|b)*abb",
	"(a*)*b", "(a*b*)*c", "((a|b)*c?)+d", "(a?|b)(c|d?)e", "x(a?b?)*y",
	"(ab|a)(bc|c)", "a(|b)c", "(|a)b", "()a", "a()b", "(()|a)b", "a{2,4}b",
	"(ab){2}", "(a|bc){1,3}d", "(a?){3}b", "(a{2}){2}", "a{0}b", "(){3}a",
	"(a*){2,}b", "[a-c]+[^x]", `\d+\.\w`, `[[:alpha:]_]\s*`, "^ab", "^(a|b)*c",
	".*a.*b", "a+?", "(a|b|c|d|e)(f|g)*", "ab.*cd|ef", "((a)(b))((c)|d)+",
	"", "a*", "(a|)", "a{0,3}", "()*", "(", "a)", "a{3,2}", "a{999}", "[z-a]",
	`\q`, "$", "a^", "((a{256}){256}){256}", "((()){256}){256}",
	"((a|b)*|c)*d", "((a*|b*)*c?)*d", "(a*|b)+c", "((ab)*|(cd)*)*e", "(a*?)*b",
	"(b(a|c)*)*d", "((a|b)*c(d|e)*)*f", "(a*b*c?)+d", "((a|b)+|(c|d)+)*e", "(b|a*)*c",
	"(c|(a|b)*)*d", "(x?(a|b)*)+d", "(x?(a|b)*y?)*z",
}

// sameCompile fails unless the product and the oracle agree on patterns:
// the same error text, or NFAs that are reflect.DeepEqual — the set, and
// each pattern compiled alone. It also holds Parse's Render to the tree's.
func sameCompile(t *testing.T, patterns []string, opts Options) {
	t.Helper()
	got, gotErr := CompileSet(patterns, opts)
	want, wantErr := compileASTSet(patterns, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("CompileSet(%q) error %v, oracle %v", patterns, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompileSet(%q) differs from the oracle:\n got %+v\nwant %+v", patterns, got, want)
	}
	for _, pat := range patterns {
		got, gotErr := Compile(pat, 7, opts)
		var want any
		ref, wantErr := parseAST(pat, opts)
		if wantErr == nil {
			want, wantErr = compileAST(ref, 7)
			p, err := Parse(pat, opts)
			if err != nil {
				t.Fatalf("Parse(%q): %v, oracle accepts it", pat, err)
			}
			if r, w := Render(p), renderNode(ref.Root); r != w {
				t.Fatalf("Render(Parse(%q)) = %s, oracle %s", pat, r, w)
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Compile(%q) error %v, oracle %v", pat, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Compile(%q) differs from the oracle:\n got %+v\nwant %+v", pat, got, want)
		}
	}
}

func TestCompileSetMatchesAST(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sameCompile(t, coldShaped(seed, 2000), Options{})
	}
	for _, opts := range []Options{{}, {CaseInsensitive: true, DotExcludesNewline: true}, {MaxRepeat: 3}} {
		for _, pat := range edgeShapes {
			sameCompile(t, []string{pat}, opts)
		}
		sameCompile(t, edgeShapes[:len(edgeShapes)/2], opts)
	}
	sameCompile(t, nil, Options{})
}

// TestNestedRepeatIsBounded: counted repetition of counted repetition is
// refused before it is copied, so 20 bytes cannot ask for 16.7 M states,
// while the bound leaves every unnested count alone.
func TestNestedRepeatIsBounded(t *testing.T) {
	const pat = "((a{256}){256}){256}"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Compile(pat, 0, Options{})
	runtime.ReadMemStats(&after)
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "past 5140 positions") {
		t.Fatalf("Compile(%q) = %v, want a ParseError naming the 5140-position bound", pat, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing %q allocated %d bytes", pat, grew)
	}
	if _, err := CompileSet([]string{"ok", pat}, Options{}); err == nil || !strings.HasPrefix(err.Error(), "pattern 1: ") {
		t.Errorf("CompileSet error %v, want it to name pattern 1", err)
	}
	for _, ok := range []string{"a{256}", "(abc){256,}", "[a-z]{0,256}x", "((a{4}){4}){4}"} {
		if _, err := Compile(ok, 0, Options{}); err != nil {
			t.Errorf("Compile(%q): %v", ok, err)
		}
	}
	// {m,} writes m+1 copies, so an unnested (atom){MaxRepeat,} stays in
	// bounds at any MaxRepeat.
	if _, err := Compile("(abcdefgh){1,}", 0, Options{MaxRepeat: 1}); err != nil {
		t.Errorf("unnested {1,} at MaxRepeat 1: %v", err)
	}
}

// TestRepeatedStarsAreBounded: every star over the same positions asks
// for the same last × first pairs again, so 2 KB of stacked stars over
// a 1000-way alternation must not cost 10^8 pairs. The wrapped form adds
// a new alternative at every level, so no rule about stacked quantifiers
// alone catches it. A deep nest of alternations must not keep every
// level's union alive either. A star of a starred expression adds no
// follow pair, so the stacked form is held to the oracle's one-star NFA.
func TestRepeatedStarsAreBounded(t *testing.T) {
	alts := "(" + strings.Repeat("a|", 999) + "a)"
	wrapped := alts
	for i := 0; i < 100; i++ {
		wrapped = "(" + wrapped + "*|b)"
	}
	nested := "a"
	for i := 0; i < 2000; i++ {
		nested = "(" + nested + "|b)"
	}
	for _, c := range []struct {
		pat, oracle string
		limit       uint64
	}{
		{alts + strings.Repeat("*", 200) + "c", alts + "*c", 96 << 20},
		{wrapped + "*c", wrapped + "*c", 96 << 20},
		{nested, nested, 2 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Compile(c.pat, 0, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Compile(%.20q…): %v", c.pat, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > c.limit {
			t.Errorf("Compile(%.20q…) allocated %d KB, want at most %d", c.pat, grew>>10, c.limit>>10)
		}
		ref, err := parseAST(c.oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := compileAST(ref, 0)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Compile(%.20q…) differs from the oracle (oracle error %v)", c.pat, err)
		}
	}
}

// TestCompactKeepsDistinctPairs: crossing the same 300 × 300 sets twenty
// times keeps the pair list within three times its 90 000 distinct pairs,
// and the Out lists are the one full set each.
func TestCompactKeepsDistinctPairs(t *testing.T) {
	const n = 300
	g := glushkov{at: make([]int32, n), compactAt: compactFloor}
	for i := range int32(n) {
		g.arena = append(g.arena, i)
	}
	all := span{0, n}
	for range 20 {
		g.cross(all, all)
		if len(g.edges) > 3*n*n {
			t.Fatalf("%d pairs kept for %d distinct", len(g.edges), n*n)
		}
	}
	states := make([]nfa.State, n)
	g.cutOut(states, false)
	want := make([]nfa.StateID, n)
	for i := range want {
		want[i] = nfa.StateID(i)
	}
	for i, st := range states {
		if !reflect.DeepEqual(st.Out, want) {
			t.Fatalf("state %d Out = %v", i, st.Out)
		}
	}
}

// FuzzCompileSet holds the slab compiler to the AST oracle: the fuzz
// string is split at newlines into a rule set, and the set and each rule
// alone must compile to DeepEqual NFAs or fail with the same error.
func FuzzCompileSet(f *testing.F) {
	f.Add(strings.Join(coldShaped(1, 8), "\n"), uint8(0))
	for _, seed := range []string{
		"a?b?c\n(a*b*)*c\n(ab|a)(bc|c)", "((a|b)*c?)+d\nx(a?b?)*y", "(a{2}){3}\n((a?){2}b){2}",
		"((a{16}){16}){16}", "(()){8}a\n(a|()){3}", `\x41\d\w\s\.\[`, "[[:alpha:][:digit:]]+\n[^[:space:]]",
		"AbC\n[a-f]+\n(?i)", "^ab.c\n.*\n", "a{3,}\n{2}\na{,2}", "(b|a*)*c\n((a|b)*|c)*d\n(x?(a|b)*y?)*z",
	} {
		for flags := uint8(0); flags < 4; flags++ {
			f.Add(seed, flags)
		}
	}
	f.Fuzz(func(t *testing.T, s string, flags uint8) {
		opts := Options{CaseInsensitive: flags&1 != 0, DotExcludesNewline: flags&2 != 0, MaxRepeat: 16}
		sameCompile(t, strings.Split(s, "\n"), opts)
	})
}
