// Command cavet runs the module's static-analysis suite
// (internal/analysis) over the source tree and exits non-zero on
// findings. It is the mechanical reviewer for the repo's concurrency
// and resilience invariants:
//
//	go run ./cmd/cavet -tests ./...
//
// Findings print as path:line:col: analyzer: message (or as SARIF
// 2.1.0 or GitHub workflow annotations via -format). Exit
// status is 0 when clean, 1 when there are findings, 2 on usage or
// load errors. Suppress a single finding with a justified directive:
//
//	//cavet:ignore <analyzer>[,<analyzer>] <reason>
//
// A directive that suppresses nothing is itself a finding (stale
// suppression), so the ignore inventory cannot rot.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cacheautomaton/internal/analysis"
	"cacheautomaton/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", false, "also analyze _test.go files and external _test packages")
	tags := fs.String("tags", "", "comma-separated build tags to satisfy during file selection")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", "", "change to this directory before resolving packages")
	format := fs.String("format", "text", "output format: text, sarif, or github")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cavet [-tests] [-tags tag,tag] [-C dir] [-format text|sarif|github] [./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "sarif", "github":
	default:
		fmt.Fprintf(stderr, "cavet: unknown -format %q (want text, sarif, or github)\n", *format)
		return 2
	}
	if *list {
		for _, a := range suite.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	// The only supported pattern is the whole module; accept "./..." (or
	// nothing, or a directory whose tree contains go.mod) for go-vet
	// muscle-memory compatibility.
	start := *dir
	if start == "" {
		start = "."
	}
	switch fs.NArg() {
	case 0:
	case 1:
		arg := strings.TrimSuffix(fs.Arg(0), "...")
		arg = strings.TrimSuffix(arg, "/")
		if arg == "" {
			arg = "."
		}
		start = filepath.Join(start, arg)
	default:
		fs.Usage()
		return 2
	}
	root, err := findModuleRoot(start)
	if err != nil {
		fmt.Fprintf(stderr, "cavet: %v\n", err)
		return 2
	}
	var buildTags []string
	if *tags != "" {
		buildTags = strings.Split(*tags, ",")
	}
	u, err := analysis.Load(analysis.LoadConfig{
		Dir:          root,
		IncludeTests: *tests,
		BuildTags:    buildTags,
	})
	if err != nil {
		fmt.Fprintf(stderr, "cavet: %v\n", err)
		return 2
	}
	findings := analysis.Run(u, suite.All())
	relPath := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	switch *format {
	case "text":
		for _, f := range findings {
			f.Pos.Filename = relPath(f.Pos.Filename)
			fmt.Fprintln(stdout, f.String())
		}
	case "sarif":
		err = analysis.WriteSARIF(stdout, suite.All(), findings, relPath)
	case "github":
		err = analysis.WriteGitHub(stdout, findings, relPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cavet: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cavet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks from dir upward to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod at or above %s", abs)
		}
		d = parent
	}
}
