package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownBenchmarkIsAnError: a -bench name the registry does not know
// exits 2 before anything runs and lists the names it does know, alone or
// beside a known one.
func TestUnknownBenchmarkIsAnError(t *testing.T) {
	for _, bench := range []string{"Nope", "Snort,Nope"} {
		var out, errb bytes.Buffer
		code := run([]string{"-bench", bench, "-exp", "table1", "-scale", "0.05", "-size", "4096"}, &out, &errb)
		if code != 2 || out.Len() != 0 {
			t.Errorf("-bench %s: exit %d, stdout %q; want exit 2 and no table", bench, code, out.String())
		}
		if !strings.Contains(errb.String(), `"Nope"`) || !strings.Contains(errb.String(), "Snort, ") {
			t.Errorf("-bench %s: stderr %q should name Nope and list the benchmarks", bench, errb.String())
		}
	}
}

func TestKnownBenchmarkRuns(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bench", "ExactMatch", "-exp", "table2", "-scale", "0.05", "-size", "4096"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if out.Len() == 0 {
		t.Error("no table rendered")
	}
}
