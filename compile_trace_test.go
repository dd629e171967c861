package cacheautomaton

import (
	"strings"
	"testing"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// TestCompileErrorPathsEndTheirStages drives every compile entry point
// into an error return and finishes the trace it dropped: no stage may
// still be open, so none needs an open_stage note.
func TestCompileErrorPathsEndTheirStages(t *testing.T) {
	var traces []*telemetry.ReqTrace
	newCompileTrace = func(op string) *telemetry.ReqTrace {
		tr := telemetry.NewReqTrace(op)
		traces = append(traces, tr)
		return tr
	}
	t.Cleanup(func() { newCompileTrace = telemetry.NewReqTrace })
	perf := Options{Design: Performance}
	for _, c := range []struct {
		name    string
		compile func() error
	}{
		{"CompileRegex parse", func() error {
			_, err := CompileRegex([]string{"a", "("}, perf)
			return err
		}},
		{"CompileRegex map", func() error { // one 3000-state component exceeds a CA_P way
			_, err := CompileRegex([]string{strings.Repeat("x", 3000)}, perf)
			return err
		}},
		{"CompileANML", func() error {
			_, err := CompileANML(strings.NewReader("<automata-network"), perf)
			return err
		}},
		{"CompileSnortRules parse", func() error {
			_, err := CompileSnortRules(`alert tcp any any -> any any (sid:1;)`, perf)
			return err
		}},
		{"CompileSnortRules compile", func() error {
			_, err := CompileSnortRules(`alert tcp any any -> any any (pcre:"/(/"; sid:1;)`, perf)
			return err
		}},
		{"CompileClamAVDatabase", func() error {
			_, _, err := CompileClamAVDatabase("Bad:zz", perf)
			return err
		}},
		{"CompileFuzzy", func() error {
			_, err := CompileFuzzy([]string{"ab"}, 2, perf)
			return err
		}},
		{"Load", func() error {
			_, err := Load(strings.NewReader("not an artifact"), perf)
			return err
		}},
		{"newAutomaton", func() error { // the eager machine build is refused
			faults.Enable(faults.NewInjector(1, map[string]faults.Rule{"machine.pool.get": {Rate: 1}}))
			defer faults.Disable()
			_, err := CompileRegex([]string{"abc"}, perf)
			return err
		}},
	} {
		traces = nil
		err := c.compile()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if len(traces) != 1 {
			t.Fatalf("%s: %d compile traces, want 1", c.name, len(traces))
		}
		rep := traces[0].Done(err)
		if len(rep.Stages) == 0 {
			t.Errorf("%s: the error path recorded no stage", c.name)
		}
		for _, n := range rep.Notes {
			t.Errorf("%s: note %s=%s\n%s", c.name, n.Key, n.Value, rep)
		}
	}
}
