package cacheautomaton

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentRunSafe is the regression test for the Automaton
// concurrency contract. Before the machine-lease API, every Run call
// Reset() and ran one shared *machine.Machine, so two goroutines calling
// Run on the same Automaton raced on the enabled vectors and the result
// accumulator (go test -race flagged it, and match sets were garbage).
// Run now leases a private machine per call: concurrent callers must all
// see exactly the sequential reference matches, under -race.
func TestConcurrentRunSafe(t *testing.T) {
	a, err := CompileRegex([]string{"cat", "dog.*food", "x[0-9]{2}y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("the cat ate dog brand food while x42y watched the cat")
	want, wantStats, err := a.RunContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no matches")
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, gotStats, err := a.RunContext(context.Background(), input)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d iter %d: %d matches, want %d", g, i, len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("goroutine %d iter %d: match %d = %+v, want %+v", g, i, j, got[j], want[j])
						return
					}
				}
				if *gotStats != *wantStats {
					errs <- fmt.Errorf("goroutine %d iter %d: stats %+v, want %+v", g, i, *gotStats, *wantStats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentMixedWorkloads drives Run, RunParallel, Count and Streams
// on one Automaton from many goroutines at once — the exact shape the
// serving layer produces — and checks every path still reports the
// sequential reference match count.
func TestConcurrentMixedWorkloads(t *testing.T) {
	a, err := CompileRegex([]string{"needle[0-9]", "stack"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("hay needle7 stack "), 40)
	want, _, err := a.RunContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	wantN := len(want)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	check := func(kind string, got int) {
		if got != wantN {
			errs <- fmt.Errorf("%s: %d matches, want %d", kind, got, wantN)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ms, _, err := a.RunContext(context.Background(), input)
				if err != nil {
					errs <- err
					return
				}
				check("Run", len(ms))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ms, _, err := a.RunParallelContext(context.Background(), input, 4)
				if err != nil {
					errs <- err
					return
				}
				check("RunParallel", len(ms))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				st, err := a.Count(context.Background(), input)
				if err != nil {
					errs <- err
					return
				}
				check("Count", int(st.Matches))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, err := a.StreamContext(context.Background())
				if err != nil {
					errs <- err
					return
				}
				total := 0
				for off := 0; off < len(input); off += 37 {
					end := off + 37
					if end > len(input) {
						end = len(input)
					}
					total += len(feed(t, s, input[off:end]))
				}
				s.Close()
				check("Stream", total)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamClose checks the stream lease lifecycle: closed streams are
// inert, Close is idempotent, and the machine is recycled through the
// automaton's pool.
func TestStreamClose(t *testing.T) {
	a, err := CompileRegex([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := feed(t, s, []byte("abab")); len(got) != 2 {
		t.Fatalf("feed = %v", got)
	}
	s.Close()
	s.Close() // idempotent
	if got, err := s.FeedContext(context.Background(), []byte("ab")); err == nil {
		t.Errorf("feed of closed stream should error, fed %v", got)
	}
	if s.Pos() != 0 {
		t.Errorf("closed stream Pos = %d", s.Pos())
	}
	if err := s.Suspend(&bytes.Buffer{}); err == nil {
		t.Error("suspend of closed stream should error")
	}
	// A fresh stream after Close starts at offset 0 (the pool Reset it).
	s2, err := a.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Pos() != 0 {
		t.Errorf("recycled stream Pos = %d", s2.Pos())
	}
	if got := feed(t, s2, []byte("xxab")); len(got) != 1 || got[0].Offset != 3 {
		t.Errorf("recycled stream feed = %v", got)
	}
}

// TestLeaseLifecycle checks Lease semantics: exclusive reuse across runs,
// released leases error, Release is idempotent.
func TestLeaseLifecycle(t *testing.T) {
	a, err := CompileRegex([]string{"cat"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.LeaseContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ms, st, err := l.RunContext(context.Background(), []byte("the cat"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || st.Cycles != 7 {
			t.Fatalf("iter %d: ms=%v stats=%+v", i, ms, st)
		}
	}
	l.Release()
	l.Release() // idempotent
	if _, _, err := l.RunContext(context.Background(), []byte("cat")); err == nil {
		t.Error("released lease should error")
	}
}
