package cacheautomaton

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSuspendResumeRoundTripProperty: for random inputs and a random
// suspend offset — including offsets landing inside a partial match —
// suspending, serializing, and resuming a stream yields exactly the
// match sequence of an uninterrupted run. This is the §2.9 context-save
// contract: Pos plus the active-state vectors are the whole architectural
// state.
func TestSuspendResumeRoundTripProperty(t *testing.T) {
	a, err := CompileRegex([]string{"needle[0-9]", "hay.{2}stack", "(ab)+c"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alphabet := []byte("abchinsty0123 needle7hay..stack")

	prop := func(seed int64, rawLen uint16, rawCut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawLen)%512 + 2
		input := make([]byte, n)
		for i := range input {
			input[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cut := int(rawCut) % n

		want, _, err := a.RunContext(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}

		s, err := a.StreamContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := feed(t, s, input[:cut])
		var state bytes.Buffer
		if err := s.Suspend(&state); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if s.Pos() != 0 {
			t.Fatal("closed stream Pos != 0")
		}
		s2, err := a.ResumeStreamContext(context.Background(), bytes.NewReader(state.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Pos() != int64(cut) {
			t.Fatalf("resumed Pos = %d, want %d", s2.Pos(), cut)
		}
		got = append(got, feed(t, s2, input[cut:])...)

		if len(got) != len(want) {
			t.Logf("cut=%d input=%q: got %v, want %v", cut, input, got, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("cut=%d input=%q: match %d got %+v, want %+v", cut, input, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendResumeChainedMigrations suspends and resumes the same
// logical stream several times at random offsets — a session hopping
// across servers — and checks the stitched match sequence against the
// uninterrupted run.
func TestSuspendResumeChainedMigrations(t *testing.T) {
	a, err := CompileRegex([]string{"aa", "aaaa", "ab|b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		input := make([]byte, 64+rng.Intn(256))
		for i := range input {
			input[i] = "ab "[rng.Intn(3)]
		}
		want, _, err := a.RunContext(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		s, err := a.StreamContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		pos := 0
		for hop := 0; hop < 4 && pos < len(input); hop++ {
			next := pos + rng.Intn(len(input)-pos+1)
			got = append(got, feed(t, s, input[pos:next])...)
			pos = next
			var state bytes.Buffer
			if err := s.Suspend(&state); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if s, err = a.ResumeStreamContext(context.Background(), &state); err != nil {
				t.Fatal(err)
			}
		}
		got = append(got, feed(t, s, input[pos:])...)
		s.Close()

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches after migrations, want %d\ninput=%q", trial, len(got), len(want), input)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
