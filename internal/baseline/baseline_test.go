package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

func compile(t testing.TB, pats []string) *nfa.NFA {
	t.Helper()
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNFAEngineMatchesReference(t *testing.T) {
	n := compile(t, []string{"cat", "c.t", "ca+t", "^dog", "[xy]{2}z"})
	e := NewNFAEngine(n)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := make([]byte, 200)
		for i := range in {
			in[i] = byte("catdogxyz "[r.Intn(10)])
		}
		want := nfa.RunAll(n, in)
		e.Reset()
		got, total := e.Run(in, true)
		if total != int64(len(want)) || len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, total, len(want))
		}
		sortMatches(got)
		sortMatches(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNFAEngineCountOnlyMode(t *testing.T) {
	n := compile(t, []string{"aa"})
	e := NewNFAEngine(n)
	ms, total := e.Run([]byte("aaaa"), false)
	if ms != nil {
		t.Error("collect=false should not allocate matches")
	}
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
}

func TestNFAEngineActiveCount(t *testing.T) {
	n := compile(t, []string{"abc", "abd"})
	e := NewNFAEngine(n)
	if e.ActiveCount() != 2 {
		t.Errorf("initial active = %d, want 2 (the two 'a' starts)", e.ActiveCount())
	}
	e.Step('a', nil, false)
	// Two 'b' states + the two re-enabled starts.
	if e.ActiveCount() != 4 {
		t.Errorf("after 'a': active = %d, want 4", e.ActiveCount())
	}
	e.Reset()
	if e.ActiveCount() != 2 {
		t.Error("Reset should restore the start set")
	}
}

func TestDFAEngineMatchesNFAEngine(t *testing.T) {
	sets := [][]string{
		{"cat", "dog"},
		{"a+b", "ba"},
		{"[ab]{3}", "abab"},
		{"^head", "tail"},
		{"x.*y"},
		{"(ab|cd)+e"},
	}
	r := rand.New(rand.NewSource(9))
	for _, pats := range sets {
		n := compile(t, pats)
		d, err := NewDFAEngine(n, 1<<16)
		if err != nil {
			t.Fatalf("%v: %v", pats, err)
		}
		e := NewNFAEngine(n)
		for trial := 0; trial < 10; trial++ {
			in := make([]byte, 300)
			for i := range in {
				in[i] = byte("abcdexyhadtilog"[r.Intn(15)])
			}
			e.Reset()
			d.Reset()
			nm, _ := e.Run(in, true)
			dm, _ := d.Run(in, true)
			want := map[[2]int64]bool{}
			for _, m := range nm {
				want[[2]int64{int64(m.Offset), int64(m.Code)}] = true
			}
			got := map[[2]int64]bool{}
			for _, m := range dm {
				for _, c := range m.Codes {
					got[[2]int64{m.Offset, int64(c)}] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v: DFA %d events vs NFA %d", pats, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("%v: DFA missing event %v", pats, k)
				}
			}
		}
	}
}

func TestDFAAlphabetCompression(t *testing.T) {
	// Patterns over {a,b}: at most 3 classes (a, b, everything else).
	n := compile(t, []string{"ab", "ba"})
	d, err := NewDFAEngine(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClasses() != 3 {
		t.Errorf("classes = %d, want 3", d.NumClasses())
	}
}

func TestDFABlowUpGuard(t *testing.T) {
	// The classic exponential case: .*a.{12} — the DFA must remember 12
	// bits of history (4096+ states).
	n := compile(t, []string{"a.{12}b"})
	_, err := NewDFAEngine(n, 512)
	if err == nil {
		t.Fatal("expected DFA blow-up error")
	}
	if !errors.Is(err, ErrDFATooLarge) {
		t.Errorf("error should wrap ErrDFATooLarge: %v", err)
	}
	// With a big enough budget it succeeds.
	if _, err := NewDFAEngine(n, 1<<15); err != nil {
		t.Errorf("construction with larger budget failed: %v", err)
	}
}

func TestDFAStartOfDataSemantics(t *testing.T) {
	n := compile(t, []string{"^ab"})
	d, err := NewDFAEngine(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, total := d.Run([]byte("abab"), true)
	if total != 1 || len(ms) != 1 || ms[0].Offset != 1 {
		t.Fatalf("anchored DFA: %v (total %d), want one match at offset 1", ms, total)
	}
}

func BenchmarkNFAEngine200Rules(b *testing.B) {
	var pats []string
	for i := 0; i < 200; i++ {
		pats = append(pats, fmt.Sprintf("sig%03d[0-9a-f]{4}", i))
	}
	n := compile(b, pats)
	e := NewNFAEngine(n)
	r := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<16)
	for i := range in {
		in[i] = byte(r.Intn(256))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Run(in, false)
	}
}

func BenchmarkDFAEngine10Rules(b *testing.B) {
	var pats []string
	for i := 0; i < 10; i++ {
		pats = append(pats, fmt.Sprintf("sig%02d[0-9]{2}", i))
	}
	n := compile(b, pats)
	d, err := NewDFAEngine(n, 1<<18)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<16)
	for i := range in {
		in[i] = byte(r.Intn(256))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		d.Run(in, false)
	}
}
