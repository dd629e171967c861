package cacheautomaton

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

var fuzzAutomata struct {
	once sync.Once
	as   []*Automaton
	err  error
}

// fuzzTargets compiles a small spread of rule sets once per fuzz worker
// process: overlapping literals, unbounded repetition, classes, anchors,
// and alternation — the shapes whose in-flight state is easiest to tear
// at a chunk boundary.
func fuzzTargets(t *testing.T) []*Automaton {
	t.Helper()
	f := &fuzzAutomata
	f.once.Do(func() {
		for _, patterns := range [][]string{
			{"cat", "dog.*food"},
			{"aa", "aaaa", "a{2,3}"},
			{"ab|b", "(ab)+c?"},
			{"^x[0-9]+y", "[^z]{3}z"},
		} {
			a, err := CompileRegex(patterns, Options{})
			if err != nil {
				f.err = err
				return
			}
			f.as = append(f.as, a)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.as
}

// FuzzStreamChunking: feeding an input through a Stream in arbitrary
// chunks — boundaries chosen by the fuzzer, including empty chunks and
// splits inside a partial match — must produce the exact match sequence
// of a one-shot Run, and a suspend/resume round-trip at one of those
// boundaries must not perturb it.
func FuzzStreamChunking(f *testing.F) {
	f.Add([]byte("the cat ate dog brand food"), []byte{3, 0, 7}, byte(0), byte(1))
	f.Add([]byte("aaaaaa"), []byte{1, 1, 1, 1, 1, 1}, byte(1), byte(3))
	f.Add([]byte("abababc"), []byte{2, 3}, byte(2), byte(0))
	f.Add([]byte("x123y x9y"), []byte{5}, byte(3), byte(200))
	f.Fuzz(func(t *testing.T, input, cuts []byte, sel, suspendAt byte) {
		if len(input) > 1<<16 {
			input = input[:1<<16]
		}
		a := fuzzTargets(t)[int(sel)%4]
		want, _, err := a.RunContext(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}

		s, err := a.StreamContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		var got []Match
		pos, chunk := 0, 0
		for _, c := range cuts {
			n := int(c)
			if pos+n > len(input) {
				n = len(input) - pos
			}
			got = append(got, feed(t, s, input[pos:pos+n])...)
			pos += n
			chunk++
			if chunk == int(suspendAt)%8+1 {
				var state bytes.Buffer
				if err := s.Suspend(&state); err != nil {
					t.Fatal(err)
				}
				s.Close()
				if s, err = a.ResumeStreamContext(context.Background(), &state); err != nil {
					t.Fatal(err)
				}
			}
		}
		got = append(got, feed(t, s, input[pos:])...)

		if len(got) != len(want) {
			t.Fatalf("chunked stream: %d matches, one-shot Run: %d\ninput=%q cuts=%v\ngot=%v\nwant=%v",
				len(got), len(want), input, cuts, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("match %d: chunked %+v, one-shot %+v (input=%q cuts=%v)", i, got[i], want[i], input, cuts)
			}
		}
	})
}
