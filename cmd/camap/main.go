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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ca "cacheautomaton"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitstream"
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
	rules := flag.String("rules", "", "file with one regex per line ('-' for stdin)")
	anmlFile := flag.String("anml", "", "ANML automata-network file")
	bench := flag.String("bench", "", "synthetic benchmark name (see cabench)")
	scale := flag.Float64("scale", 1.0, "benchmark scale (with -bench)")
	design := flag.String("design", "perf", "perf (CA_P) or space (CA_S)")
	seed := flag.Int64("seed", 1, "partitioner seed")
	caseIns := flag.Bool("i", false, "case-insensitive regex")
	imageOut := flag.String("o", "", "write the configuration bitstream image to this file")
	saveOut := flag.String("save", "", "serialize the mapped automaton as a CRC-guarded caformat container to this file")
	loadIn := flag.String("load", "", "load a caformat container written by -save instead of compiling (-rules/-anml/-bench ignored)")
	dotOut := flag.String("dot", "", "write the partition graph (Graphviz DOT) to this file")
	traceCompile := flag.Bool("trace-compile", false, "print the compile-pipeline phase breakdown")
	flag.Parse()
	picked, err := ca.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camap:", err)
		os.Exit(2)
	}

	var (
		pl   *mapper.Placement
		kind arch.DesignKind
	)
	if *loadIn != "" {
		f, err := os.Open(*loadIn)
		if err != nil {
			fatal(err)
		}
		pl, _, err = caformat.Decode(f)
		cerr := f.Close()
		if err != nil {
			fatal(err)
		}
		if cerr != nil {
			fatal(cerr)
		}
		kind = pl.Design.Kind
		fmt.Printf("loaded:              %s (verified)\n", *loadIn)
	} else {
		n, err := loadNFA(*rules, *anmlFile, *bench, *scale, *seed, *caseIns)
		if err != nil {
			fatal(err)
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
			fmt.Print(tr.Done(err).String())
		}
		if err != nil {
			fatal(err)
		}
		if kind == arch.SpaceOpt {
			fmt.Printf("state merging:       %d → %d states (ladder level: %v)\n",
				before.States, pl.NFA.NumStates(), level)
		}
	}
	st := pl.ComputeStats()
	nst := pl.NFA.ComputeStats()
	fmt.Printf("design:              %v\n", kind)
	fmt.Printf("states:              %d\n", nst.States)
	fmt.Printf("edges:               %d\n", nst.Edges)
	fmt.Printf("connected components:%d (largest %d)\n", nst.ConnectedComponents, nst.LargestCC)
	fmt.Printf("partitions:          %d (avg fill %.1f%%)\n", st.Partitions, st.AvgFill*100)
	fmt.Printf("ways / slices:       %d / %d\n", st.WaysUsed, st.SlicesUsed)
	fmt.Printf("cache footprint:     %.3f MB\n", st.UtilizationMB)
	fmt.Printf("edges by switch:     local %d, G1 %d, G4 %d, chained %d\n",
		st.LocalEdges, st.G1Edges, st.G4Edges, st.ChainedEdges)
	fmt.Printf("budget use:          out %d/%d, in %d/%d signals\n",
		st.MaxOutSignals, budget(kind), st.MaxInSignals, budget(kind))
	d := arch.NewDesign(kind)
	fmt.Printf("operating frequency: %.2f GHz (%.1f Gb/s)\n",
		d.OperatingFrequencyGHz(arch.TimingOptions{}), d.ThroughputGbps(arch.TimingOptions{}))
	fmt.Printf("config image:        %d KB, ~%.3f ms to load\n",
		bitstream.ImageSizeBytes(pl)/1024, arch.ConfigurationTimeMS(pl.NumPartitions()))
	fmt.Printf("peak power hint:     %.2f W\n", pl.PeakPowerHintW())
	if *imageOut != "" {
		f, err := os.Create(*imageOut)
		if err != nil {
			fatal(err)
		}
		if err := bitstream.Write(f, pl); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *imageOut)
	}
	if *saveOut != "" {
		f, err := os.Create(*saveOut)
		if err != nil {
			fatal(err)
		}
		if err := caformat.Encode(f, pl, nil); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if fi, err := os.Stat(*saveOut); err == nil {
			fmt.Printf("wrote %s (%d KB, caformat v%d)\n", *saveOut, fi.Size()/1024, caformat.Version)
		}
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := pl.WriteDOT(f, "placement"); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "camap:", err)
	os.Exit(1)
}
