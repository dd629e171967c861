package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cacheautomaton/internal/faults"
)

// TestRunContextMatchesRun checks chunking is invisible: a cancelable ctx
// that never fires scans in ContextCheckBytes sub-batches and must be
// bit-identical to the single-chunk run a context.Background() gets.
func TestRunContextMatchesRun(t *testing.T) {
	seq, pool := buildPool(t, []string{"needle", "ab+c"}, 1)
	input := []byte(strings.Repeat("xx needle abc yy ", 40<<10)) // several sub-batches
	want, err := seq.RunContext(context.Background(), input)
	if err != nil {
		t.Fatalf("background ctx: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := pool[0].RunContext(ctx, input)
	if err != nil {
		t.Fatalf("cancelable ctx: %v", err)
	}
	assertResultsEqual(t, "cancelable ctx", want, got)
}

// TestRunContextCancelStopsWithinOneChunk is the regression test for
// deadline-aware cancellation: a canceled run over a huge input must
// stop within one ContextCheckBytes sub-batch, not scan to the end.
func TestRunContextCancelStopsWithinOneChunk(t *testing.T) {
	_, pool := buildPool(t, []string{"needle"}, 1)
	m := pool[0]

	// 100 MB of input; pre-canceled ctx must consume zero bytes.
	big := make([]byte, 100<<20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Reset()
	res, err := m.RunContext(ctx, big)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Pos() != 0 {
		t.Fatalf("pre-canceled run consumed %d bytes, want 0", m.Pos())
	}
	if res == nil {
		t.Fatal("partial result is nil")
	}

	// Cancel from a goroutine watching progress: the run must stop within
	// one sub-batch of wherever the cancel landed, far short of the end.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2() // deterministic: cancel before the second chunk check
	m.Reset()
	_, err = m.RunContext(ctx2, big)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Pos() > ContextCheckBytes {
		t.Fatalf("canceled run consumed %d bytes, want <= one chunk (%d)", m.Pos(), ContextCheckBytes)
	}
}

// TestRunShardedContextCancel checks the sharded engine honors ctx and
// returns every per-shard error.
func TestRunShardedContextCancel(t *testing.T) {
	_, pool := buildPool(t, []string{"needle"}, 4)
	input := make([]byte, 4<<20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunShardedContext(ctx, pool, input)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunShardedWorkerPanicIsolated proves a panicking shard worker is
// recovered into an error instead of killing the process, and the
// machines stay reusable afterwards.
func TestRunShardedWorkerPanicIsolated(t *testing.T) {
	seq, pool := buildPool(t, []string{"needle"}, 4)
	input := []byte(strings.Repeat("xx needle yy ", 1<<16))

	faults.Enable(faults.NewInjector(7, map[string]faults.Rule{
		"machine.shard.worker": {Rate: 1, Kinds: faults.KindPanic},
	}))
	_, err := RunShardedContext(context.Background(), pool, input)
	faults.Disable()
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("err = %v, want shard worker panic error", err)
	}

	// The pool machines must still produce correct results.
	want := mustRun(seq, input)
	got, err := RunShardedContext(context.Background(), pool, input)
	if err != nil {
		t.Fatalf("rerun after panic: %v", err)
	}
	assertResultsEqual(t, "rerun after panic", want, got)
}
