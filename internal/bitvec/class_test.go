package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassAddHasRemove(t *testing.T) {
	var c Class
	if !c.IsEmpty() {
		t.Fatal("zero class should be empty")
	}
	c.Add('a')
	c.Add(0)
	c.Add(255)
	for _, s := range []byte{'a', 0, 255} {
		if !c.Has(s) {
			t.Errorf("class should contain %d", s)
		}
	}
	if c.Has('b') {
		t.Error("class should not contain 'b'")
	}
	if got := c.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	c.Remove('a')
	if c.Has('a') {
		t.Error("'a' should have been removed")
	}
	if got := c.Count(); got != 2 {
		t.Errorf("Count after remove = %d, want 2", got)
	}
}

func TestClassRange(t *testing.T) {
	c := ClassRange('a', 'z')
	if got := c.Count(); got != 26 {
		t.Fatalf("Count = %d, want 26", got)
	}
	for s := 0; s < 256; s++ {
		want := s >= 'a' && s <= 'z'
		if c.Has(byte(s)) != want {
			t.Errorf("Has(%d) = %v, want %v", s, !want, want)
		}
	}
	// Degenerate single-symbol range.
	one := ClassRange('x', 'x')
	if one.Count() != 1 || !one.Has('x') {
		t.Errorf("single range wrong: %v", one)
	}
	// Full range.
	if AllSymbols().Count() != 256 {
		t.Error("AllSymbols should have 256 members")
	}
}

func TestClassOf(t *testing.T) {
	c := ClassOf('x', 'y', 'x')
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2 (duplicates collapse)", c.Count())
	}
}

func TestClassSetAlgebraProperties(t *testing.T) {
	gen := func(r *rand.Rand) Class { return randomClass(r) }
	and := func(a, b Class) Class { return Class{a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]} }
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a, b := gen(r), gen(r)
		if got := a.Union(b); got != b.Union(a) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		// De Morgan.
		if a.Union(b).Complement() != and(a.Complement(), b.Complement()) {
			t.Fatalf("De Morgan failed: %v %v", a, b)
		}
		// Count via inclusion-exclusion.
		if a.Union(b).Count()+and(a, b).Count() != a.Count()+b.Count() {
			t.Fatalf("inclusion-exclusion failed: %v %v", a, b)
		}
	}
}

func TestClassSymbolsAndRangesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		c := randomClass(r)
		// Rebuild from Symbols.
		var fromSyms Class
		for _, s := range c.Symbols() {
			fromSyms.Add(s)
		}
		if fromSyms != c {
			t.Fatalf("Symbols round trip failed for %v", c)
		}
		// Rebuild from Ranges.
		var fromRanges Class
		for _, rr := range c.Ranges() {
			fromRanges.AddRange(rr[0], rr[1])
			if rr[0] > rr[1] {
				t.Fatalf("invalid range %v", rr)
			}
		}
		if fromRanges != c {
			t.Fatalf("Ranges round trip failed for %v", c)
		}
	}
}

func TestClassRangesMinimal(t *testing.T) {
	c := ClassOf('a', 'b', 'c', 'x', 'z')
	got := c.Ranges()
	want := [][2]byte{{'a', 'c'}, {'x', 'x'}, {'z', 'z'}}
	if len(got) != len(want) {
		t.Fatalf("Ranges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranges[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClassStringEdgeCases(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{
		{Class{}, "[]"},
		{ClassOf('a'), "[a]"},
		{ClassRange('a', 'c'), "[a-c]"},
		{ClassOf('a', 'b'), "[ab]"},
		{ClassOf(']'), `[\]]`},
		{ClassOf('-'), `[\-]`},
		{ClassOf(0), `[\x00]`},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String(%v ranges) = %q, want %q", tc.c.Ranges(), got, tc.want)
		}
	}
}

func TestQuickComplementInvolution(t *testing.T) {
	f := func(w0, w1, w2, w3 uint64) bool {
		c := Class{w0, w1, w2, w3}
		return c.Complement().Complement() == c &&
			c.Union(c.Complement()) == AllSymbols() &&
			c.Count()+c.Complement().Count() == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomClass(r *rand.Rand) Class {
	var c Class
	switch r.Intn(4) {
	case 0: // sparse
		for i, n := 0, r.Intn(8); i < n; i++ {
			c.Add(byte(r.Intn(256)))
		}
	case 1: // range
		lo := byte(r.Intn(256))
		hi := byte(min(255, int(lo)+r.Intn(64)))
		c.AddRange(lo, hi)
	case 2: // dense random words
		c = Class{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	case 3: // complement of sparse
		for i, n := 0, r.Intn(8); i < n; i++ {
			c.Add(byte(r.Intn(256)))
		}
		c = c.Complement()
	}
	return c
}
