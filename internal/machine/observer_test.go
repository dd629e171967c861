package machine

import (
	"bytes"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/telemetry"
)

// testObserver keeps every summary the machine hands the hook.
type testObserver struct{ runs []telemetry.RunSummary }

func (o *testObserver) ObserveRun(r telemetry.RunSummary) { o.runs = append(o.runs, r) }

// wantSummary is the summary a run from Reset producing res must deliver
// (Seconds aside).
func wantSummary(res *Result) telemetry.RunSummary {
	return telemetry.RunSummary{
		Symbols:                res.Activity.Cycles,
		Matches:                res.MatchCount,
		OutputBufferInterrupts: res.OutputBufferInterrupts,
		OutputBufferPeak:       res.OutputBufferPeak,
		SumActiveStates:        res.Activity.SumActiveStates,
		SumDynamicStates:       res.Activity.SumDynamicStates,
		SumActivePartitions:    res.Activity.SumActivePartitions,
		SumG1Crossings:         res.Activity.SumG1Crossings,
		SumG4Crossings:         res.Activity.SumG4Crossings,
	}
}

func buildObserved(t *testing.T, patterns []string, obs Observer) *Machine {
	t.Helper()
	n, err := regexc.CompileSet(patterns, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Observer = obs
	return m
}

// TestObserverSeesCyclesMatchesAndRuns: one summary per RunContext, equal
// to the Result for a run from Reset and to the delta for a continued
// stream, so the summaries of a stream's feeds add up to its Result.
func TestObserverSeesCyclesMatchesAndRuns(t *testing.T) {
	obs := &testObserver{}
	m := buildObserved(t, []string{"ab", "b"}, obs)
	first := *mustRun(m, []byte("ababab"))
	if len(obs.runs) != 1 {
		t.Fatalf("observed %d runs, want 1", len(obs.runs))
	}
	got := obs.runs[0]
	if got.Seconds <= 0 {
		t.Errorf("seconds = %v, want > 0", got.Seconds)
	}
	got.Seconds = 0
	if want := wantSummary(&first); got != want {
		t.Errorf("first run summary = %+v, want %+v", got, want)
	}
	total := *mustRun(m, []byte("abb"))
	if len(obs.runs) != 2 {
		t.Fatalf("observed %d runs, want 2", len(obs.runs))
	}
	got = obs.runs[1]
	if got.Symbols != 3 || got.Matches != total.MatchCount-first.MatchCount ||
		got.SumActiveStates != total.Activity.SumActiveStates-first.Activity.SumActiveStates {
		t.Errorf("second feed summary %+v is not the delta %+v → %+v", got, first, total)
	}
}

func TestOutputBufferPeakAndOverflow(t *testing.T) {
	obs := &testObserver{}
	// "a" matches every symbol of a long all-a input: one report per cycle,
	// so the buffer fills every OutputBufferEntries cycles.
	m := buildObserved(t, []string{"a"}, obs)
	input := bytes.Repeat([]byte("a"), 3*OutputBufferEntries)
	res := mustRun(m, input)
	if res.OutputBufferInterrupts != 3 {
		t.Errorf("interrupts = %d, want 3", res.OutputBufferInterrupts)
	}
	if got := obs.runs[0].OutputBufferInterrupts; got != 3 {
		t.Errorf("observed overflows = %d, want 3", got)
	}
	if res.OutputBufferPeak != OutputBufferEntries || obs.runs[0].OutputBufferPeak != OutputBufferEntries {
		t.Errorf("peak = %d (observed %d), want %d", res.OutputBufferPeak, obs.runs[0].OutputBufferPeak, OutputBufferEntries)
	}
}

func TestDrainMatchesBoundsRetention(t *testing.T) {
	m := buildObserved(t, []string{"a"}, nil)
	chunk := bytes.Repeat([]byte("a"), 10)
	var total int
	for i := 0; i < 5; i++ {
		mustRun(m, chunk)
		got := m.DrainMatches()
		if len(got) != len(chunk) {
			t.Fatalf("feed %d: drained %d matches, want %d", i, len(got), len(chunk))
		}
		total += len(got)
	}
	// After draining, the machine retains nothing: a zero-symbol Run
	// snapshots the live result.
	if leftover := mustRun(m, nil).Matches; len(leftover) != 0 {
		t.Errorf("machine retained %d matches after drain", len(leftover))
	}
	if got := mustRun(m, nil).MatchCount; got != int64(total) {
		t.Errorf("MatchCount = %d, want %d (drain must not reset counts)", got, total)
	}
}

func TestObserverNilHasNoEffectOnResults(t *testing.T) {
	input := []byte(strings.Repeat("xyzzy", 100))
	withObs := buildObserved(t, []string{"zz", "xy"}, &testObserver{})
	without := buildObserved(t, []string{"zz", "xy"}, nil)
	a, b := mustRun(withObs, input), mustRun(without, input)
	if a.MatchCount != b.MatchCount || a.Activity != b.Activity {
		t.Errorf("observer changed results: %+v vs %+v", a, b)
	}
}
