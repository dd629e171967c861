package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startCad runs the daemon on free ports and returns its bound addresses
// plus a stop func that triggers the drain and returns (exitCode, stdout).
func startCad(t *testing.T, extraArgs ...string) (addrs, func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-http", "127.0.0.1:0", "-drain-timeout", "5s"}, extraArgs...)
	var out, errOut bytes.Buffer
	boundCh := make(chan addrs, 1)
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, args, &out, &errOut, func(a addrs) { boundCh <- a })
	}()
	var bound addrs
	select {
	case bound = <-boundCh:
	case code := <-codeCh:
		t.Fatalf("cad exited early with %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("cad never became ready")
	}
	var stopCode int
	var stopLogs string
	stopped := false
	stop := func() (int, string) {
		if stopped {
			return stopCode, stopLogs
		}
		stopped = true
		cancel()
		select {
		case stopCode = <-codeCh:
			stopLogs = out.String() + errOut.String()
		case <-time.After(15 * time.Second):
			t.Fatal("cad never exited")
		}
		return stopCode, stopLogs
	}
	t.Cleanup(func() { stop() })
	return bound, stop
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

func TestCadServesHTTP(t *testing.T) {
	rules := writeFile(t, "rules.txt", "cat\ndog.*food\n# comment\n")
	bound, stop := startCad(t, "-rules", rules, "-ruleset", "pets")
	base := "http://" + bound.HTTP

	// The preloaded rule set serves one-shot matches.
	var match struct {
		Matches []struct {
			Offset  int64 `json:"offset"`
			Pattern int   `json:"pattern"`
		} `json:"matches"`
	}
	code := postJSON(t, base+"/match", map[string]any{"ruleset": "pets", "input": "the cat ate dog brand food"}, &match)
	if code != 200 || len(match.Matches) != 2 {
		t.Fatalf("match: code %d, %+v", code, match)
	}
	if match.Matches[0].Offset != 6 || match.Matches[1].Offset != 25 {
		t.Fatalf("offsets: %+v", match.Matches)
	}

	// Streaming session across a chunk boundary.
	var sess struct {
		Session string `json:"session"`
	}
	if code := postJSON(t, base+"/sessions", map[string]any{"ruleset": "pets"}, &sess); code != 200 {
		t.Fatal("open session")
	}
	var feed struct {
		Matches []struct {
			Offset int64 `json:"offset"`
		} `json:"matches"`
	}
	postJSON(t, base+"/sessions/"+sess.Session+"/feed", map[string]any{"chunk": "a ca"}, &feed)
	if len(feed.Matches) != 0 {
		t.Fatalf("partial match leaked: %+v", feed)
	}
	postJSON(t, base+"/sessions/"+sess.Session+"/feed", map[string]any{"chunk": "t!"}, &feed)
	if len(feed.Matches) != 1 || feed.Matches[0].Offset != 4 {
		t.Fatalf("boundary match: %+v", feed)
	}

	// Health and graceful exit.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	code, logs := stop()
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, logs)
	}
	for _, want := range []string{"ruleset \"pets\"", "HTTP API on", "draining", "drained"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
}

func TestCadServesTCPAndMetrics(t *testing.T) {
	bound, stop := startCad(t, "-tcp", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	if bound.TCP == "" || bound.Metrics == "" {
		t.Fatalf("bound = %+v", bound)
	}

	conn, err := net.Dial("tcp", bound.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	send := func(req string) map[string]any {
		t.Helper()
		if _, err := fmt.Fprintln(conn, req); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		return out
	}

	if r := send(`{"op":"ping"}`); r["ok"] != true || r["result"] != "pong" {
		t.Fatalf("ping: %v", r)
	}
	if r := send(`{"op":"compile","name":"re","patterns":["needle"]}`); r["ok"] != true {
		t.Fatalf("compile: %v", r)
	}
	r := send(`{"op":"match","ruleset":"re","input":"a needle here"}`)
	if r["ok"] != true {
		t.Fatalf("match: %v", r)
	}
	ms := r["result"].(map[string]any)["matches"].([]any)
	if len(ms) != 1 || ms[0].(map[string]any)["offset"].(float64) != 7 {
		t.Fatalf("tcp matches: %v", ms)
	}
	// Sessions over TCP, and structured errors for junk.
	r = send(`{"op":"open","ruleset":"re"}`)
	id := r["result"].(map[string]any)["session"].(string)
	r = send(`{"op":"feed","session":"` + id + `","chunk":"xx needle"}`)
	if r["ok"] != true {
		t.Fatalf("feed: %v", r)
	}
	if r := send(`{"op":"nope"}`); r["ok"] != false || r["status"].(float64) != 400 {
		t.Fatalf("unknown op: %v", r)
	}
	if r := send(`{"op":`); r["ok"] != false {
		t.Fatalf("torn JSON: %v", r)
	}

	// The telemetry endpoint exports the server collectors.
	resp, err := http.Get("http://" + bound.Metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ca_server_requests_total") {
		t.Errorf("metrics missing server collectors:\n%.400s", body)
	}

	if code, logs := stop(); code != 0 {
		t.Fatalf("exit = %d\n%s", code, logs)
	}
}

func TestCadBadInvocations(t *testing.T) {
	ctx := context.Background()
	var out, errOut bytes.Buffer
	if code := run(ctx, []string{"-nope"}, &out, &errOut, nil); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
	errOut.Reset()
	if code := run(ctx, []string{"-rules", "/does/not/exist"}, &out, &errOut, nil); code != 1 {
		t.Errorf("missing rules: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "preload") {
		t.Errorf("stderr: %q", errOut.String())
	}
	errOut.Reset()
	rules := writeFile(t, "bad.txt", "(unclosed\n")
	if code := run(ctx, []string{"-rules", rules}, &out, &errOut, nil); code != 1 {
		t.Errorf("bad rules: exit %d", code)
	}
	errOut.Reset()
	// Canceled, so a cad that wrongly accepts the design drains at once.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if code := run(canceled, []string{"-http", "127.0.0.1:0", "-rules", writeFile(t, "ok.txt", "cat\n"), "-design", "bogus"}, &out, &errOut, nil); code != 1 {
		t.Errorf("unknown design: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown design") {
		t.Errorf("stderr: %q", errOut.String())
	}
	errOut.Reset()
	if code := run(ctx, []string{"-http", "256.256.256.256:1"}, &out, &errOut, nil); code != 1 {
		t.Errorf("bad listen addr: exit %d", code)
	}
}
