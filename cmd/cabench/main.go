// Command cabench regenerates the paper's evaluation: every table and
// figure, or a chosen subset, at a configurable benchmark scale and input
// size.
//
// Usage:
//
//	cabench [-scale 1.0] [-size 1048576] [-seed 1] [-bench Snort,Brill]
//	        [-exp all|summary|table1|table2|table3|table4|table5|
//	              figure7|figure8|figure9|figure10|case-er]
//	        [-parallel 0]
//	        [-metrics-addr :8080] [-trace-compile]
//
// With -parallel N, the 20 benchmarks × 2 designs pipeline runs are
// prefetched over N workers before any table is rendered (N=0 uses all
// cores; the default 1 keeps the sequential behavior). The rendered
// output is byte-identical to a sequential run — only wall-clock time
// changes.
//
// The paper's runs use 10 MB inputs and full-size rule sets (-scale 1
// -size 10485760); the trends are stable at much smaller settings, which
// run in seconds.
//
// cabench measures the modeled hardware only. The serving stack (batched
// vs per-request serving, cold start, cluster hops) is measured by the
// bench/ ledger; see bench/README.md.
//
// With -metrics-addr, a telemetry endpoint serves /metrics (Prometheus
// text), /debug/vars and /debug/pprof/ while the experiments run — the
// pprof profile endpoint is the intended way to find compiler and
// simulator hot paths under paper-sized load. With -trace-compile, each
// (benchmark, design) compilation prints its phase breakdown to stderr as
// it completes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cacheautomaton/internal/experiments"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "benchmark scale (1.0 = paper-sized NFAs)")
	size := fs.Int("size", 1<<20, "input stream bytes to simulate")
	seed := fs.Int64("seed", 1, "generator seed")
	bench := fs.String("bench", "", "comma-separated benchmark subset (default all 20)")
	exp := fs.String("exp", "all", "experiment to run: all, summary, table1-5, figure7-10, case-er, replication")
	traceCompile := fs.Bool("trace-compile", false, "print each benchmark's compile phase breakdown to stderr")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	parallel := fs.Int("parallel", 1, "prefetch pipeline runs over this many workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := experiments.Config{Scale: *scale, InputBytes: *size, Seed: *seed}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
		for _, name := range cfg.Benchmarks {
			if workload.ByName(name) == nil {
				fmt.Fprintf(stderr, "cabench: unknown benchmark %q (have: %s)\n", name, strings.Join(workload.Names(), ", "))
				return 2
			}
		}
	}
	if *metricsAddr != "" {
		cfg.Observer = telemetry.NewMachineCollector(nil)
		srv, err := telemetry.Serve(*metricsAddr, nil)
		if err != nil {
			fmt.Fprintln(stderr, "cabench:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}
	if *traceCompile {
		cfg.TraceSink = func(r *telemetry.ReqReport) {
			fmt.Fprint(stderr, r.String())
		}
	}
	r := experiments.NewRunner(cfg)
	if *parallel != 1 {
		r.PrefetchAll(*parallel)
	}

	type entry struct {
		name string
		fn   func() *experiments.Table
	}
	all := []entry{
		{"table1", r.Table1},
		{"table2", r.Table2},
		{"table3", r.Table3},
		{"table4", r.Table4},
		{"table5", r.Table5},
		{"figure7", r.Figure7},
		{"figure8", r.Figure8},
		{"figure9", r.Figure9},
		{"figure10", r.Figure10},
		{"case-er", r.CaseStudyER},
		{"replication", r.Replication},
		{"host-baseline", r.HostBaseline},
		{"summary", r.Summary},
	}
	want := strings.ToLower(*exp)
	ran := 0
	for _, e := range all {
		if want != "all" && want != e.name {
			continue
		}
		if err := e.fn().Render(stdout); err != nil {
			fmt.Fprintln(stderr, "cabench:", err)
			return 1
		}
		fmt.Fprintln(stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "cabench: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}
