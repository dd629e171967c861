// Command carun executes a rule set over an input stream on the simulated
// Cache Automaton and prints the matches and modeled hardware statistics.
//
// Usage:
//
//	carun -rules rules.txt -in data.bin [-design perf|space] [-max 20]
//	carun -rules rules.txt -in data.bin -parallel 0
//	carun -rules rules.txt -in data.bin -trace-compile -metrics-addr :8080
//	echo "some text" | carun -rules rules.txt -in -
//
// With -parallel N, the input is scanned by N replicated machines in
// parallel (N=0 uses all cores) with bit-identical matches and statistics;
// short inputs fall back to the sequential engine.
//
// With -metrics-addr, a telemetry endpoint serves /metrics (Prometheus
// text), /metrics.json, /debug/vars (expvar) and /debug/pprof/ for the
// lifetime of the process. With -trace-compile, the compiler's per-phase
// wall-time breakdown is printed before the results.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	ca "cacheautomaton"
	"cacheautomaton/internal/rulefmt"
	"cacheautomaton/internal/telemetry"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of carun: parses args, compiles, executes, and
// prints; returns the process exit code.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("carun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "file with one regex per line")
	snort := fs.String("snort", "", "Snort-style rule file (content/pcre/sid)")
	clamav := fs.String("clamav", "", "ClamAV-style hex-signature database")
	in := fs.String("in", "-", "input file ('-' for stdin)")
	design := fs.String("design", "perf", "perf (CA_P) or space (CA_S)")
	maxPrint := fs.Int("max", 20, "print at most this many matches")
	caseIns := fs.Bool("i", false, "case-insensitive")
	parallel := fs.Int("parallel", 1, "scan with this many replicated machines (0 = all cores)")
	traceCompile := fs.Bool("trace-compile", false, "print the compile-pipeline phase breakdown")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (':0' picks a port)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	d, err := ca.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(stderr, "carun:", err)
		return 2
	}
	opts := ca.Options{CaseInsensitive: *caseIns, Design: d}
	if *metricsAddr != "" {
		opts.RunObserver = telemetry.NewMachineCollector(nil)
		srv, err := telemetry.Serve(*metricsAddr, nil)
		if err != nil {
			fmt.Fprintln(stderr, "carun:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}

	var a *ca.Automaton
	switch {
	case *snort != "":
		text, rerr := os.ReadFile(*snort)
		if rerr != nil {
			fmt.Fprintln(stderr, "carun:", rerr)
			return 1
		}
		a, err = ca.CompileSnortRules(string(text), opts)
	case *clamav != "":
		text, rerr := os.ReadFile(*clamav)
		if rerr != nil {
			fmt.Fprintln(stderr, "carun:", rerr)
			return 1
		}
		a, _, err = ca.CompileClamAVDatabase(string(text), opts)
	case *rules != "":
		text, rerr := os.ReadFile(*rules)
		if rerr != nil {
			fmt.Fprintln(stderr, "carun:", rerr)
			return 1
		}
		a, err = ca.CompileRegex(rulefmt.Patterns(string(text)), opts)
	default:
		fmt.Fprintln(stderr, "carun: one of -rules, -snort, -clamav is required")
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "carun:", err)
		return 1
	}
	if *traceCompile {
		fmt.Fprint(stdout, a.CompileReport().String())
	}
	data, err := readAll(*in, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "carun:", err)
		return 1
	}
	var matches []ca.Match
	var stats *ca.Stats
	if *parallel == 1 {
		matches, stats, err = a.RunContext(ctx, data)
	} else {
		matches, stats, err = a.RunParallelContext(ctx, data, *parallel)
	}
	if err != nil {
		fmt.Fprintln(stderr, "carun:", err)
		return 1
	}
	for i, m := range matches {
		if i >= *maxPrint {
			fmt.Fprintf(stdout, "... and %d more\n", len(matches)-*maxPrint)
			break
		}
		fmt.Fprintf(stdout, "match: rule %d at offset %d\n", m.Pattern, m.Offset)
	}
	fmt.Fprintf(stdout, "-- %s: %d states in %d partitions (%.3f MB of LLC)\n",
		opts.Design, a.States(), a.Partitions(), a.CacheUsageMB())
	fmt.Fprintf(stdout, "-- %d symbols, %d matches, avg %.1f active states\n",
		stats.Cycles, stats.Matches, stats.AvgActiveStates)
	fmt.Fprintf(stdout, "-- modeled: %.2f GHz, %.0f ns runtime, %.1f pJ/symbol, %.2f W\n",
		a.FrequencyGHz(), stats.ModeledSeconds*1e9, stats.EnergyPJPerSymbol, stats.AvgPowerW)
	return 0
}

func readAll(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}
