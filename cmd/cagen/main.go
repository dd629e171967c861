// Command cagen materializes the synthetic benchmarks: it writes a
// benchmark's NFA as ANML and/or its input stream as a trace file, so the
// workloads can be fed to external tools (VASim, AP SDK) or re-run
// byte-identically.
//
// Usage:
//
//	cagen -bench Snort -scale 0.5 -anml snort.anml -trace snort.10mb -size 10485760
//	cagen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	scale := flag.Float64("scale", 1.0, "benchmark scale (1.0 = paper-sized)")
	seed := flag.Int64("seed", 1, "generator seed")
	anmlOut := flag.String("anml", "", "write the benchmark NFA as ANML to this file")
	traceOut := flag.String("trace", "", "write the input stream to this file")
	size := flag.Int("size", 1<<20, "trace size in bytes")
	list := flag.Bool("list", false, "list available benchmarks")
	timings := flag.Bool("timings", false, "print generation phase timings to stderr")
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			p := s.Paper
			fmt.Printf("%-18s %7d states, %5d CCs (largest %5d)  —  %s\n",
				s.Name, p.States, p.CCs, p.LargestCC, s.Description)
		}
		return
	}
	spec := workload.ByName(*bench)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "cagen: unknown benchmark %q (use -list)\n", *bench)
		os.Exit(2)
	}
	if *anmlOut == "" && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "cagen: nothing to do (pass -anml and/or -trace)")
		os.Exit(2)
	}
	var tr *telemetry.ReqTrace
	if *timings {
		tr = telemetry.NewReqTrace("cagen/" + spec.Name)
	}
	if *anmlOut != "" {
		sb := tr.StartStage("build-nfa")
		n, err := spec.Build(*seed, *scale)
		if err != nil {
			fatal(err)
		}
		sb.SetAttr("states", int64(n.NumStates()))
		sb.End()
		sw := tr.StartStage("write-anml")
		f, err := os.Create(*anmlOut)
		if err != nil {
			fatal(err)
		}
		if err := anml.Write(f, n, spec.Name, nil); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		sw.End()
		st := n.ComputeStats()
		fmt.Printf("wrote %s: %d states, %d CCs\n", *anmlOut, st.States, st.ConnectedComponents)
	}
	if *traceOut != "" {
		sg := tr.StartStage("generate-trace")
		input := spec.Input(*seed, *size)
		sg.SetAttr("bytes", int64(len(input)))
		sg.End()
		if err := os.WriteFile(*traceOut, input, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d bytes\n", *traceOut, *size)
	}
	if *timings {
		fmt.Fprint(os.Stderr, tr.Done(nil).String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cagen:", err)
	os.Exit(1)
}
