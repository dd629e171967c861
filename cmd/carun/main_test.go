package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCapture(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunRegexRules(t *testing.T) {
	rules := writeFile(t, "rules.txt", "cat\ndog.*food\n# a comment\n")
	code, out, errOut := runCapture(t,
		[]string{"-rules", rules, "-in", "-"}, "the cat ate dog brand food")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "match: rule 0") || !strings.Contains(out, "match: rule 1") {
		t.Errorf("missing matches:\n%s", out)
	}
	if !strings.Contains(out, "CA_P:") {
		t.Errorf("missing design summary:\n%s", out)
	}
}

func TestRunDesignSelection(t *testing.T) {
	rules := writeFile(t, "rules.txt", "abc\n")
	for _, tc := range []struct {
		design string
		code   int
		want   string
	}{
		{"space", 0, "CA_S:"},
		{"perf", 0, "CA_P:"},
		// Only the two names parse: not the design's printed name, and
		// not any word that starts with an s.
		{"CA_S", 2, `carun: unknown design "CA_S"`},
		{"sloppy", 2, `carun: unknown design "sloppy"`},
	} {
		code, out, errOut := runCapture(t, []string{"-rules", rules, "-design", tc.design, "-in", "-"}, "abc")
		if code != tc.code || !strings.Contains(out+errOut, tc.want) {
			t.Errorf("-design %s: exit %d, want %d and %q:\n%s%s", tc.design, code, tc.code, tc.want, out, errOut)
		}
	}
}

func TestRunMaxTruncation(t *testing.T) {
	rules := writeFile(t, "rules.txt", "a\n")
	code, out, _ := runCapture(t,
		[]string{"-rules", rules, "-max", "3", "-in", "-"}, strings.Repeat("a", 10))
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if got := strings.Count(out, "match: rule"); got != 3 {
		t.Errorf("printed %d matches, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, "... and 7 more") {
		t.Errorf("missing truncation line:\n%s", out)
	}
}

func TestRunSnortSelection(t *testing.T) {
	snort := writeFile(t, "rules.rules",
		`alert tcp any any -> any any (msg:"t"; content:"virus"; sid:1001;)`)
	code, out, errOut := runCapture(t, []string{"-snort", snort, "-in", "-"}, "a virus here")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "match: rule 1001") {
		t.Errorf("snort sid not reported:\n%s", out)
	}
}

func TestRunClamAVSelection(t *testing.T) {
	db := writeFile(t, "sigs.ndb", "TestSig:6162??64\n")
	code, out, errOut := runCapture(t, []string{"-clamav", db, "-in", "-"}, "xxabcdxx")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "match: rule 0") {
		t.Errorf("clamav signature not reported:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if code, _, errOut := runCapture(t, nil, ""); code != 1 ||
		!strings.Contains(errOut, "one of -rules, -snort, -clamav") {
		t.Errorf("no-source run: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runCapture(t, []string{"-rules", "/does/not/exist"}, ""); code != 1 {
		t.Errorf("missing rules file should exit 1, got %d", code)
	}
	if code, _, _ := runCapture(t, []string{"-bogus-flag"}, ""); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	bad := writeFile(t, "bad.txt", "(unclosed\n")
	if code, _, errOut := runCapture(t, []string{"-rules", bad, "-in", "-"}, "x"); code != 1 ||
		!strings.Contains(errOut, "carun:") {
		t.Errorf("bad pattern: exit %d, stderr %q", code, errOut)
	}
}

func TestRunTraceCompile(t *testing.T) {
	rules := writeFile(t, "rules.txt", "cat\n")
	code, out, _ := runCapture(t, []string{"-rules", rules, "-trace-compile", "-in", "-"}, "cat")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"compile-regex", "  ok  ", "regexc.parse", "patterns=1", "regexc.glushkov", "machine.build", "classes=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// TestRunMetricsEndpoint is the acceptance-criteria path: -metrics-addr :0
// -trace-compile must serve /metrics, /debug/vars and /debug/pprof/ and
// print the phase breakdown.
func TestRunMetricsEndpoint(t *testing.T) {
	rules := writeFile(t, "rules.txt", "cat\n")
	var out, errb bytes.Buffer
	addrCh := make(chan string, 1)
	done := make(chan int, 1)
	// Probe the endpoint while run() still holds it open: readAll blocks
	// on stdin until the probe finishes.
	pr, pw := io.Pipe()
	go func() {
		done <- run(context.Background(), []string{"-rules", rules, "-metrics-addr", "127.0.0.1:0", "-trace-compile", "-in", "-"},
			pr, &syncWriter{buf: &out, addrCh: addrCh}, &errb)
	}()
	addr := <-addrCh
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "# TYPE ca_active_states histogram") {
			t.Errorf("/metrics missing machine metrics:\n%s", body)
		}
	}
	fmt.Fprint(pw, "the cat")
	pw.Close()
	if code := <-done; code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "compile-regex") {
		t.Errorf("missing compile trace:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "match: rule 0") {
		t.Errorf("missing match:\n%s", out.String())
	}
}

var addrRe = regexp.MustCompile(`http://([^\s]+)`)

// syncWriter forwards writes to buf and announces the telemetry address
// once it appears in the output.
type syncWriter struct {
	buf    *bytes.Buffer
	addrCh chan string
	sent   bool
}

func (w *syncWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if !w.sent {
		if m := addrRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addrCh <- string(m[1])
		}
	}
	return n, err
}

func TestRunParallelFlag(t *testing.T) {
	rules := writeFile(t, "rules.txt", "needle[0-9]\nx.*yz\n")
	// Large enough that -parallel 0 actually shards (≥ ~8 KB per shard).
	var input strings.Builder
	for i := 0; input.Len() < 100_000; i++ {
		fmt.Fprintf(&input, "padding %d x around yz needle%d ", i, i%10)
	}
	codeSeq, outSeq, errSeq := runCapture(t,
		[]string{"-rules", rules, "-max", "5", "-in", "-"}, input.String())
	if codeSeq != 0 {
		t.Fatalf("sequential exit = %d, stderr = %q", codeSeq, errSeq)
	}
	codePar, outPar, errPar := runCapture(t,
		[]string{"-rules", rules, "-max", "5", "-parallel", "0", "-in", "-"}, input.String())
	if codePar != 0 {
		t.Fatalf("parallel exit = %d, stderr = %q", codePar, errPar)
	}
	if outPar != outSeq {
		t.Errorf("-parallel output differs from sequential:\n%s\nvs\n%s", outPar, outSeq)
	}
}
