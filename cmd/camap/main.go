// Command camap compiles a rule set (regex list or ANML file, or a named
// synthetic benchmark) and reports how the Cache Automaton compiler maps
// it: partitions, ways, cache footprint, switch usage, and budget headroom.
//
// Usage:
//
//	camap -rules rules.txt [-design perf|space] [-seed 1]
//	camap -anml machine.anml -design space
//	camap -bench EntityResolution -scale 0.2 -design space
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ca "cacheautomaton"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"

	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/rulefmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of camap: parses args, compiles or loads,
// prints the mapping report and writes the requested files; returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("camap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "file with one regex per line ('-' for stdin)")
	anmlFile := fs.String("anml", "", "ANML automata-network file")
	bench := fs.String("bench", "", "synthetic benchmark name (see cabench)")
	scale := fs.Float64("scale", 1.0, "benchmark scale (with -bench)")
	design := fs.String("design", "perf", "perf (CA_P) or space (CA_S)")
	seed := fs.Int64("seed", 1, "partitioner seed")
	caseIns := fs.Bool("i", false, "case-insensitive regex")
	saveOut := fs.String("save", "", "serialize the mapped automaton as a CRC-guarded caformat container to this file")
	loadIn := fs.String("load", "", "load a caformat container written by -save instead of compiling (-rules/-anml/-bench ignored)")
	dotOut := fs.String("dot", "", "write the partition graph (Graphviz DOT) to this file")
	traceCompile := fs.Bool("trace-compile", false, "print the compile-pipeline phase breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	picked, err := ca.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(stderr, "camap:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "camap:", err)
		return 1
	}

	var (
		pl   *mapper.Placement
		kind arch.DesignKind
	)
	if *loadIn != "" {
		f, err := os.Open(*loadIn)
		if err != nil {
			return fail(err)
		}
		pl, _, err = caformat.Decode(f)
		cerr := f.Close()
		if err != nil {
			return fail(err)
		}
		if cerr != nil {
			return fail(cerr)
		}
		kind = pl.Design.Kind
		fmt.Fprintf(stdout, "loaded:              %s (verified)\n", *loadIn)
	} else {
		n, err := loadNFA(*rules, *anmlFile, *bench, *scale, *seed, *caseIns)
		if err != nil {
			return fail(err)
		}
		kind = arch.PerfOpt
		if picked == ca.Space {
			kind = arch.SpaceOpt
		}
		before := n.ComputeStats()
		var tr *telemetry.ReqTrace
		if *traceCompile {
			tr = telemetry.NewReqTrace("camap/" + kind.String())
		}
		var level mapper.OptimizeLevel
		pl, level, err = mapper.MapOptimized(n, mapper.Config{
			Design:         arch.NewDesign(kind),
			Seed:           *seed,
			AllowChainedG4: kind == arch.SpaceOpt,
			Trace:          tr,
		})
		if *traceCompile {
			fmt.Fprint(stdout, tr.Done(err).String())
		}
		if err != nil {
			return fail(err)
		}
		if kind == arch.SpaceOpt {
			fmt.Fprintf(stdout, "state merging:       %d → %d states (ladder level: %v)\n",
				before.States, pl.NFA.NumStates(), level)
		}
	}
	st := pl.ComputeStats()
	nst := pl.NFA.ComputeStats()
	fmt.Fprintf(stdout, "design:              %v\n", kind)
	fmt.Fprintf(stdout, "states:              %d\n", nst.States)
	fmt.Fprintf(stdout, "edges:               %d\n", nst.Edges)
	fmt.Fprintf(stdout, "connected components:%d (largest %d)\n", nst.ConnectedComponents, nst.LargestCC)
	fmt.Fprintf(stdout, "partitions:          %d (avg fill %.1f%%)\n", st.Partitions, st.AvgFill*100)
	fmt.Fprintf(stdout, "ways / slices:       %d / %d\n", st.WaysUsed, st.SlicesUsed)
	fmt.Fprintf(stdout, "cache footprint:     %.3f MB\n", st.UtilizationMB)
	fmt.Fprintf(stdout, "edges by switch:     local %d, G1 %d, G4 %d, chained %d\n",
		st.LocalEdges, st.G1Edges, st.G4Edges, st.ChainedEdges)
	fmt.Fprintf(stdout, "budget use:          out %d/%d, in %d/%d signals\n",
		st.MaxOutSignals, budget(kind), st.MaxInSignals, budget(kind))
	d := arch.NewDesign(kind)
	fmt.Fprintf(stdout, "operating frequency: %.2f GHz (%.1f Gb/s)\n",
		d.OperatingFrequencyGHz(arch.TimingOptions{}), d.ThroughputGbps(arch.TimingOptions{}))
	fmt.Fprintf(stdout, "config image:        %d KB, ~%.3f ms to load\n",
		arch.ConfigurationImageBytes(len(pl.Partitions), len(pl.Cross))/1024, arch.ConfigurationTimeMS(pl.NumPartitions()))
	fmt.Fprintf(stdout, "peak power hint:     %.2f W\n", pl.PeakPowerHintW())
	if *saveOut != "" {
		if err := writeFile(*saveOut, func(w io.Writer) error { return caformat.Encode(w, pl, nil) }); err != nil {
			return fail(err)
		}
		if fi, err := os.Stat(*saveOut); err == nil {
			fmt.Fprintf(stdout, "wrote %s (%d KB, caformat v%d)\n", *saveOut, fi.Size()/1024, caformat.Version)
		}
	}
	if *dotOut != "" {
		if err := writeFile(*dotOut, func(w io.Writer) error { return pl.WriteDOT(w, "placement") }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotOut)
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func budget(kind arch.DesignKind) int {
	d := arch.NewDesign(kind)
	return d.G1SignalsPerPartition + d.G4SignalsPerPartition
}

func loadNFA(rules, anmlFile, bench string, scale float64, seed int64, caseIns bool) (*nfa.NFA, error) {
	switch {
	case bench != "":
		spec := workload.ByName(bench)
		if spec == nil {
			return nil, fmt.Errorf("unknown benchmark %q (have: %s)", bench, strings.Join(workload.Names(), ", "))
		}
		return spec.Build(seed, scale)
	case anmlFile != "":
		f, err := os.Open(anmlFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		net, err := anml.Read(f)
		if err != nil {
			return nil, err
		}
		return net.NFA, nil
	case rules != "":
		text, err := readFile(rules)
		if err != nil {
			return nil, err
		}
		return regexc.CompileSet(rulefmt.Patterns(string(text)), regexc.Options{CaseInsensitive: caseIns})
	default:
		return nil, fmt.Errorf("one of -rules, -anml, -bench is required")
	}
}

// readFile reads path, or stdin for "-".
func readFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
