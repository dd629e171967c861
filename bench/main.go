// Command bench is the repository's performance ledger: five named
// workloads, each measured end to end by an untraced run and layer by
// layer by a traced one, from one harness in one schema on one named
// host. It touches no product code — every layer is timed from outside,
// through its public functions. README.md in this directory is the
// manual; BENCHMARK.json at the repository root declares the metrics.
//
//	go run ./bench                          every workload, both passes
//	go run ./bench -workload scan-dense     one workload
//	go run ./bench -compare A.json B.json   verdict per (workload, metric)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// hostInfo names the machine and toolchain a result came from; numbers
// from two hosts are not comparable and -compare says so.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	h.Hostname, _ = os.Hostname() // an unnamed host is still a host
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; then the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// ledger is result.json: everything one invocation measured.
type ledger struct {
	Host         hostInfo          `json:"host"`
	Seed         int64             `json:"seed"`
	PassSeconds  float64           `json:"pass_seconds"`
	RoundSeconds float64           `json:"round_seconds"`
	Clients      int               `json:"clients"`
	Workloads    []*workloadReport `json:"workloads"`
	// Layers is the layer matrix of the traced pass: the per-layer
	// metrics that do not depend on which workload ran.
	Layers map[string]stat `json:"layers,omitempty"`
	// LayerChecks counts the layer matrix's own output checks.
	LayerAttempted int64 `json:"layer_attempted,omitempty"`
	LayerFailed    int64 `json:"layer_failed,omitempty"`
}

func (l *ledger) failed() int64 {
	n := l.LayerFailed
	for _, w := range l.Workloads {
		n += w.Failed
	}
	return n
}

// runLedger runs the named workloads and, when traced, the layer matrix
// after them, printing one line per metric as results arrive.
func runLedger(ctx context.Context, cfg *config, names []string, untraced, traced bool, out io.Writer) (*ledger, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	led := &ledger{Host: thisHost(), Seed: cfg.seed, PassSeconds: cfg.pass.Seconds(), RoundSeconds: cfg.round.Seconds(), Clients: cfg.clients}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			return led, fmt.Errorf("unknown workload %q", name)
		}
		rep, err := runWorkload(ctx, cfg, w, untraced, traced)
		led.Workloads = append(led.Workloads, rep)
		if err != nil {
			return led, err
		}
		printStats(out, w.name, endToEnd, rep.EndToEnd)
		printRow(out, w.name, "fail_ratio", rep.FailRatio, "ratio", rep.Attempted, 0)
		printStats(out, w.name, perLayer, rep.PerLayer)
	}
	if traced {
		var err error
		led.Layers, led.LayerAttempted, led.LayerFailed, err = runLayers(ctx, cfg)
		if err != nil {
			return led, fmt.Errorf("layers: %w", err)
		}
		printStats(out, "layers", perLayer, led.Layers)
	}
	return led, nil
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// withoutSamples is the ledger as -compare needs it: every value with
// its count and split-half range, without the thousands of per-round
// samples behind them.
func (l *ledger) withoutSamples() *ledger {
	strip := func(stats map[string]stat) map[string]stat {
		if stats == nil {
			return nil
		}
		out := make(map[string]stat, len(stats))
		for k, s := range stats {
			s.Samples = nil
			out[k] = s
		}
		return out
	}
	c := *l
	c.Layers = strip(l.Layers)
	c.Workloads = nil
	for _, w := range l.Workloads {
		wc := *w
		wc.EndToEnd, wc.PerLayer = strip(w.EndToEnd), strip(w.PerLayer)
		c.Workloads = append(c.Workloads, &wc)
	}
	return &c
}

// resultLine is the one-object summary a single-workload, single-pass
// run ends with: the contract an outside driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l *ledger) resultLine(traced bool) resultLine {
	w := l.Workloads[0]
	line := resultLine{Attempted: w.Attempted + l.LayerAttempted, Failed: l.failed(), Metrics: map[string]resultValue{}}
	line.Correct = line.Failed == 0
	stats := w.EndToEnd
	if traced {
		stats = map[string]stat{}
		for k, v := range l.Layers {
			stats[k] = v
		}
		for k, v := range w.PerLayer {
			stats[k] = v
		}
	}
	for k, s := range stats {
		line.Metrics[k] = resultValue{s.Value, s.Unit}
	}
	return line
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of the generated rules and inputs")
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seconds := fs.Float64("seconds", 24, "timed seconds per workload, cut into rounds of seconds/1024, after a discarded warm-up of seconds/8")
	trace := fs.String("trace", "", "0: untraced pass only; 1: traced pass only; empty: both")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json, trace files and scratch data")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != "" && *trace != "0" && *trace != "1") {
		fs.Usage()
		return 2
	}
	names := workloadNames()
	if *name != "all" {
		names = []string{*name}
	}
	pass := time.Duration(*seconds * float64(time.Second))
	cfg := &config{
		seed:    *seed,
		pass:    pass,
		round:   pass / roundsPerPass,
		probe:   pass / 100,
		clients: defaultClients(),
		outDir:  *out,
	}
	led, err := runLedger(ctx, cfg, names, *trace != "1", *trace != "0", stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// result.json is what -compare reads and what gets committed as a
	// reference; samples.json is the same with every sample kept, for
	// anyone who wants another statistic than the quiet value.
	path := filepath.Join(cfg.outDir, "result.json")
	if err := errors.Join(led.withoutSamples().write(path), led.write(filepath.Join(cfg.outDir, "samples.json"))); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	if len(names) == 1 && *trace != "" {
		line, err := json.Marshal(led.resultLine(*trace == "1"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return exitCode(led, stderr)
}

// exitCode is non-zero when any operation failed its output check.
func exitCode(led *ledger, stderr io.Writer) int {
	if n := led.failed(); n > 0 {
		fmt.Fprintf(stderr, "bench: %d operations failed their output check\n", n)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
