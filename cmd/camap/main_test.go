package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// reportLines is the mapping report of out: every line but the ones
// saying where the placement came from or what was written.
func reportLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(l, "loaded:") && !strings.HasPrefix(l, "state merging:") && !strings.HasPrefix(l, "wrote ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestSaveLoadReportsAgree maps Snort at scale 0.1 under both designs,
// saves it, and loads it back: the loaded placement must report what the
// compiled one did.
func TestSaveLoadReportsAgree(t *testing.T) {
	for _, design := range []string{"perf", "space"} {
		art := filepath.Join(t.TempDir(), "snort.caf")
		code, out, errOut := runCapture("-bench", "Snort", "-scale", "0.1", "-design", design, "-save", art)
		if code != 0 {
			t.Fatalf("%s: save exit = %d, stderr = %q", design, code, errOut)
		}
		if !strings.Contains(out, "wrote "+art) {
			t.Errorf("%s: save did not say it wrote %s:\n%s", design, art, out)
		}
		code, loaded, errOut := runCapture("-load", art)
		if code != 0 {
			t.Fatalf("%s: load exit = %d, stderr = %q", design, code, errOut)
		}
		if !strings.HasPrefix(loaded, "loaded:") {
			t.Errorf("%s: load did not say what it loaded:\n%s", design, loaded)
		}
		want, got := strings.Join(reportLines(out), "\n"), strings.Join(reportLines(loaded), "\n")
		for _, prefix := range []string{"design:", "states:", "edges:", "partitions:", "ways / slices:",
			"edges by switch:", "budget use:", "config image:"} {
			if !strings.Contains("\n"+want, "\n"+prefix) {
				t.Errorf("%s: report has no %q line:\n%s", design, prefix, out)
			}
		}
		if got != want {
			t.Errorf("%s: loaded report differs\ncompiled:\n%s\nloaded:\n%s", design, want, got)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bench", "Snort", "-scale", "0.1", "-design", "CA_S"}, 2, `camap: unknown design "CA_S"`},
		{[]string{"-bench", "Snort", "-scale", "0.1", "-o", "image.bin"}, 2, "flag provided but not defined: -o"},
		{[]string{"-bench", "NoSuchBenchmark"}, 1, `camap: unknown benchmark "NoSuchBenchmark"`},
	} {
		code, _, errOut := runCapture(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", tc.args, code, errOut, tc.code, tc.want)
		}
	}
}
