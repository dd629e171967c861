package machine

import (
	"bytes"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// testObserver records everything the machine reports through the hook.
type testObserver struct {
	cycles       int64
	activeStates int64
	g1, g4       int64
	matches      int64
	overflows    int64
	runs         int64
	runSymbols   int64
	runPeak      int64
}

func (o *testObserver) ObserveCycle(activeStates, activeParts, g1, g4 int64) {
	o.cycles++
	o.activeStates += activeStates
	o.g1 += g1
	o.g4 += g4
}
func (o *testObserver) ObserveMatches(n int64) { o.matches += n }
func (o *testObserver) ObserveOverflow()       { o.overflows++ }
func (o *testObserver) ObserveRun(symbols int64, seconds float64, peak int64) {
	o.runs++
	o.runSymbols += symbols
	o.runPeak = peak
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
	m, err := New(pl, Options{CollectMatches: true, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestObserverSeesCyclesMatchesAndRuns(t *testing.T) {
	obs := &testObserver{}
	m := buildObserved(t, []string{"ab", "b"}, obs)
	input := []byte("ababab")
	res := mustRun(m, input)

	if obs.cycles != int64(len(input)) {
		t.Errorf("observed cycles = %d, want %d", obs.cycles, len(input))
	}
	if obs.matches != res.MatchCount {
		t.Errorf("observed matches = %d, machine counted %d", obs.matches, res.MatchCount)
	}
	if obs.runs != 1 || obs.runSymbols != int64(len(input)) {
		t.Errorf("observed runs = %d symbols = %d", obs.runs, obs.runSymbols)
	}
	if obs.activeStates != res.Activity.SumActiveStates {
		t.Errorf("observed active states = %d, activity sum = %d",
			obs.activeStates, res.Activity.SumActiveStates)
	}
	if obs.g1 != res.Activity.SumG1Crossings || obs.g4 != res.Activity.SumG4Crossings {
		t.Errorf("observed crossings g1=%d g4=%d, activity g1=%d g4=%d",
			obs.g1, obs.g4, res.Activity.SumG1Crossings, res.Activity.SumG4Crossings)
	}
	if obs.runPeak != res.OutputBufferPeak {
		t.Errorf("observed peak = %d, result peak = %d", obs.runPeak, res.OutputBufferPeak)
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
	if obs.overflows != 3 {
		t.Errorf("observed overflows = %d, want 3", obs.overflows)
	}
	if res.OutputBufferPeak != OutputBufferEntries {
		t.Errorf("peak = %d, want %d", res.OutputBufferPeak, OutputBufferEntries)
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
