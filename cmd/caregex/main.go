// Command caregex compiles a regex rule set to an ANML automata network on
// stdout — the front half of the paper's toolchain, usable to feed other
// ANML consumers (e.g. VASim or AP SDK tooling).
//
// Usage:
//
//	caregex -rules rules.txt [-id network-name] [-i] > machine.anml
package main

import (
	"flag"
	"fmt"
	"os"

	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/rulefmt"
	"cacheautomaton/internal/telemetry"
)

func main() {
	rules := flag.String("rules", "", "file with one regex per line")
	id := flag.String("id", "cacheautomaton", "automata-network id")
	caseIns := flag.Bool("i", false, "case-insensitive")
	traceCompile := flag.Bool("trace-compile", false, "print the front-end phase breakdown to stderr")
	flag.Parse()
	if *rules == "" {
		fatal(fmt.Errorf("-rules is required"))
	}
	data, err := os.ReadFile(*rules)
	if err != nil {
		fatal(err)
	}
	pats := rulefmt.Patterns(string(data))
	var tr *telemetry.ReqTrace
	if *traceCompile {
		tr = telemetry.NewReqTrace("caregex")
	}
	n, err := regexc.CompileSet(pats, regexc.Options{CaseInsensitive: *caseIns, Trace: tr})
	if *traceCompile {
		fmt.Fprint(os.Stderr, tr.Done(err).String())
	}
	if err != nil {
		fatal(err)
	}
	if err := anml.Write(os.Stdout, n, *id, nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caregex:", err)
	os.Exit(1)
}
