package server

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"cacheautomaton/internal/telemetry"
)

// matchLoad drives one round of the 64-client load shape against s
// in-process, through the same per-request trace plumbing the
// transports use (newTrace → Match → finishTrace), and returns the
// round's wall time. On a tracing-disabled server newTrace returns nil
// and every trace call is a no-op, so the two configurations differ
// only by the flight recorder itself.
func matchLoad(t *testing.T, s *Server, clients, perClient int, input []byte) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rt := s.newTrace("match")
				ctx := telemetry.WithReqTrace(context.Background(), rt)
				_, err := s.Match(ctx, MatchRequest{Ruleset: "smoke", Input: string(input)})
				if err != nil {
					s.finishTrace(rt, "error", err.Error())
					errs <- err
					return
				}
				s.finishTrace(rt, "ok", "")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestFlightRecorderOverhead is the observability bench-smoke: the
// flight recorder (trace allocation, span bookkeeping, ring publish,
// stage histograms) must cost less than 5% of serving throughput on the
// 64-client load shape. Rounds alternate traced/untraced order and the
// best (minimum) round of each configuration is compared: the minimum
// is the least noise-contaminated estimate of true cost, so scheduler
// jitter on a shared CI runner does not decide the verdict.
func TestFlightRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing assertion; skipped under the race detector")
	}
	// 19 rounds: the one-word symbol loop took a round of this rule set
	// from ~130 ms to ~55 ms, and best-of-9 of rounds that short let a
	// loaded two-core host decide the verdict (5 false failures in 32 runs
	// beside another package's tests, against 1 in 32 before the loop
	// and 0 in 20 with 19 rounds). Same wall time as before, more samples.
	clients, perClient, rounds := 64, 4, 19
	input := smokeInput(rand.New(rand.NewSource(1)), 64<<10)

	mk := func(ringSize int) *Server {
		// Workers and queue are sized so all 64 clients are admitted
		// whatever GOMAXPROCS the runner has: shedding 503s would turn the
		// comparison into a queue test.
		cfg := Config{
			Registry:      telemetry.NewRegistry(),
			TraceRingSize: ringSize,
			MatchWorkers:  8,
			QueueDepth:    2 * clients,
			QueueWait:     time.Minute,
		}
		s := New(cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	traced := mk(0)    // default ring, tracing on
	untraced := mk(-1) // flight recorder off
	if traced.Ring() == nil || untraced.Ring() != nil {
		t.Fatal("configuration mixup")
	}

	// Warm both pools and code paths before timing anything.
	matchLoad(t, traced, clients, 1, input)
	matchLoad(t, untraced, clients, 1, input)

	measure := func() float64 {
		var on, off []float64
		for r := 0; r < rounds; r++ {
			// Alternate which configuration runs first so drift (thermal,
			// noisy neighbors) hits both equally.
			if r%2 == 0 {
				on = append(on, matchLoad(t, traced, clients, perClient, input).Seconds())
				off = append(off, matchLoad(t, untraced, clients, perClient, input).Seconds())
			} else {
				off = append(off, matchLoad(t, untraced, clients, perClient, input).Seconds())
				on = append(on, matchLoad(t, traced, clients, perClient, input).Seconds())
			}
		}
		best := func(v []float64) float64 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			return s[0]
		}
		mOn, mOff := best(on), best(off)
		overhead := (mOn - mOff) / mOff
		t.Logf("traced %.4fs untraced %.4fs overhead %.2f%%", mOn, mOff, overhead*100)
		return overhead
	}
	// A shared runner can throw a >5% noise spike across a whole
	// measurement; one retry makes a false failure require two
	// independent spikes.
	overhead := measure()
	if overhead >= 0.05 {
		overhead = measure()
	}
	if overhead >= 0.05 {
		t.Fatalf("flight recorder overhead %.2f%% >= 5%% budget after retry", overhead*100)
	}
	// The traced server must actually have recorded the load.
	if len(traced.Ring().Snapshot().Recent) == 0 {
		t.Fatal("traced round recorded nothing")
	}
}
