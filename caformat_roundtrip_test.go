package cacheautomaton

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"cacheautomaton/internal/anml"
	"cacheautomaton/internal/difftest"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

// TestRuleSetPathBytesUnchanged pins the artifact Save writes for a fixed
// table of rule sets — one per front-end, design and shape — by its
// length and SHA-256. Everything on the rule-set path reaches those
// bytes: the order the front-ends union their parts in, the order of
// every state's Out list, the mapper's placement and the encoder's
// layout. The path is tuned for speed without changing a byte, so a
// change to any of them fails here and names the rule set. The values
// were recorded from the reflection-based encoder and per-rule unions
// that the current code replaced; the four CA_S registry rows — one per
// mapper path: tight-packed and raw k-way splits rescued by repair,
// consolidation, and each lower rung of the back-off ladder — from the
// mapper that still counted the switch budgets four separate ways; the
// ANML row, registry Snort@0.1 written by anml.Write and compiled by
// CompileANML, from the reader that decoded through encoding/xml.
func TestRuleSetPathBytesUnchanged(t *testing.T) {
	thousand := make([]string, 1000) // regexc's BenchmarkCompile1000Patterns set
	for i := range thousand {
		thousand[i] = fmt.Sprintf("pat%04d[a-f]{2}x+", i)
	}
	const snortText = `alert tcp any any -> any 80 (msg:"PHF probe"; content:"/cgi-bin/phf"; sid:1001;)
alert tcp any any -> any 80 (msg:"shellcode"; content:"|90 90|AAAA"; nocase; sid:1002;)
alert tcp any any -> any any (msg:"regex rule"; pcre:"/attack[0-9]{2}x/i"; sid:1003;)
alert tcp any any -> any any (msg:"both"; content:"prefix"; pcre:"/suf.fix/"; sid:1004;)
alert tcp any any -> any any (msg:"loop"; pcre:"/(ab|cd)+e[^;]*f/"; sid:1005;)`
	const clamText = "Eicar.Test:58354f2150\nTrojan.Foo:dead??beef\nWin.Skip:4d5a??90{3}50\n"
	snort := workload.ByName("Snort")
	// space maps a registry benchmark on CA_S, seeding the build and the
	// mapper alike, with the compile report recorded for the row's shape.
	space := func(name string, scale float64, seed int64) func() (*Automaton, error) {
		return func() (*Automaton, error) {
			n, err := workload.ByName(name).Build(seed, scale)
			if err != nil {
				return nil, err
			}
			return fromNFA(n, Options{Design: Space, Seed: seed}, telemetry.NewReqTrace("test"))
		}
	}
	// counted checks that every named attribute of the compile report's
	// first stage called stage is positive: the mapper took those paths.
	counted := func(stage string, attrs ...string) func(a *Automaton) error {
		return func(a *Automaton) error {
			st := a.CompileReport().Stage(stage)
			for _, attr := range attrs {
				if st == nil || st.Attr(attr) <= 0 {
					return fmt.Errorf("%s %s is not positive: %+v", stage, attr, st)
				}
			}
			return nil
		}
	}

	for _, tc := range []struct {
		name    string
		compile func() (*Automaton, error)
		// shape, when set, checks the rule set still has the shape the
		// row is there for.
		shape  func(a *Automaton) error
		bytes  int
		sha256 string
	}{
		{"regex/1000-patterns", func() (*Automaton, error) { return CompileRegex(thousand, Options{}) }, nil,
			540200, "e50dba2efd17d45f5cb0e1330f7471ea69087f9bf7fdd2d5c2e791f311d85081"},
		{"snort", func() (*Automaton, error) { return CompileSnortRules(snortText, Options{}) }, nil,
			2582, "4e6b08b9f54d72d8ed886c887d39656af215f791887c90107efefd2bc32bacc1"},
		{"clamav", func() (*Automaton, error) {
			a, _, err := CompileClamAVDatabase(clamText, Options{})
			return a, err
		}, nil,
			1044, "56a0489eb83c8709639a4156182c1132773c835fbeb43fa5aa6d3677da038899"},
		{"fuzzy", func() (*Automaton, error) {
			return CompileFuzzy([]string{"kitten", "sitting", "automaton"}, 2, Options{})
		}, nil,
			7160, "8b56edb5e6d21105c4c6da5acdf489ffd39646ef469b94c45127700a0f1d10a6"},
		{"space", func() (*Automaton, error) {
			return CompileRegex([]string{"needle[0-9]+", "needle[a-z]+", "(foo|bar)baz", "foo.*bar", "start[a-f]{3}end"},
				Options{Design: Space})
		}, nil,
			1776, "677a4e29d0f4f106ffb2c689ec037af179e01fb09e0af698587e4a397e9eb74a"},
		{"registry/Snort@0.1", func() (*Automaton, error) {
			n, err := snort.Build(1, 0.1)
			if err != nil {
				return nil, err
			}
			return fromNFA(n, Options{}, nil)
		}, func(a *Automaton) error {
			if a.Partitions() != 27 {
				return fmt.Errorf("%d partitions, want 27", a.Partitions())
			}
			return nil
		},
			347952, "8d11736479139e7c261d0158582b0fa2b1dcb85228816b57e5e0208acbb7709b"},
		{"a{700}", func() (*Automaton, error) { return CompileRegex([]string{"a{700}"}, Options{MaxRepeat: 700}) },
			func(a *Automaton) error {
				if a.Partitions() < 3 {
					return fmt.Errorf("%d partitions, want a chain across at least 3", a.Partitions())
				}
				return nil
			},
			37848, "4ea56a96fb4941fc6649809f8f061e38f00b6cad5d6a53e915353533131a920f"},
		{"registry/Hamming@0.3/space/seed2", space("Hamming", 0.3, 2),
			counted("map.large", "packed_commits", "kway_commits", "rescued"),
			170492, "5aa579a5b7f9d63329740457eb25a9c961805ffd8338f9b3579176ecb458af17"},
		{"registry/SPM@0.1/space/seed1", space("SPM", 0.1, 1), counted("map.pack", "merges"),
			250242, "4c0c51e1ee2f6d655f10c257d8e25daeeab5855d0767b36b14e32466681d9777"},
		{"registry/Hamming@0.5/space/seed3", space("Hamming", 0.5, 3), counted("backoff.prefix-merge", "mapped"),
			291412, "ead1b84608f34ff48b5e7c57ba0d73a3d4e2802dc876bf229635467fce75898e"},
		// Prefix-only merging yields the full merge's automaton here, so
		// the ladder skips that rung rather than map a lost cause again.
		{"registry/Levenshtein@0.5/space/seed3", space("Levenshtein", 0.5, 3), func(a *Automaton) error {
			if err := counted("backoff.prefix-merge", "skipped")(a); err != nil {
				return err
			}
			return counted("backoff.no-merge", "mapped")(a)
		},
			93400, "563e90cdcd0242f0a39cbba3c2e7d2c9d88077f04d81fed2d5ccc9de51e2ed8a"},
		{"anml/Snort@0.1", func() (*Automaton, error) {
			n, err := snort.Build(1, 0.1)
			if err != nil {
				return nil, err
			}
			var doc bytes.Buffer
			if err := anml.Write(&doc, n, "snort", nil); err != nil {
				return nil, err
			}
			return CompileANML(&doc, Options{})
		}, nil,
			347952, "8d11736479139e7c261d0158582b0fa2b1dcb85228816b57e5e0208acbb7709b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.compile()
			if err != nil {
				t.Fatal(err)
			}
			if tc.shape != nil {
				if err := tc.shape(a); err != nil {
					t.Fatalf("not the rule set this row pins: %v", err)
				}
			}
			var art bytes.Buffer
			if err := a.Save(&art); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(art.Bytes())
			if got := hex.EncodeToString(sum[:]); art.Len() != tc.bytes || got != tc.sha256 {
				t.Errorf("%s: Save wrote %d bytes, sha256 %s; want %d bytes, sha256 %s",
					tc.name, art.Len(), got, tc.bytes, tc.sha256)
			}
		})
	}
}

// TestSaveLoadRoundTripProperty: for random pattern sets and inputs,
// Load(Save(a)) is indistinguishable from the freshly compiled automaton
// on every execution surface — Run, RunParallel and Stream all serve
// exactly the Go-regexp oracle's report set — and Save is
// deterministic (the loaded automaton re-encodes to the same bytes),
// which is what makes the content-addressed compile cache stable.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	prop := func(seed int64, rawLen uint16) bool {
		g := difftest.New(seed)
		patterns := g.Patterns(5)
		input := g.Input(int(rawLen)%300 + 8)

		fresh, err := CompileRegex(patterns, Options{Seed: seed})
		if err != nil {
			// The generator stays in the shared subset; a rejected set is a
			// bug, not a skip.
			t.Fatalf("compile %q: %v", patterns, err)
		}
		var blob bytes.Buffer
		if err := fresh.Save(&blob); err != nil {
			t.Fatalf("save: %v", err)
		}
		loaded, err := Load(bytes.NewReader(blob.Bytes()), Options{})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if loaded.States() != fresh.States() || loaded.Partitions() != fresh.Partitions() {
			t.Logf("geometry drift: %d/%d states, %d/%d partitions",
				loaded.States(), fresh.States(), loaded.Partitions(), fresh.Partitions())
			return false
		}
		var reblob bytes.Buffer
		if err := loaded.Save(&reblob); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		if !bytes.Equal(blob.Bytes(), reblob.Bytes()) {
			t.Logf("Save(Load(Save(a))) not bit-identical (%d vs %d bytes)", blob.Len(), reblob.Len())
			return false
		}

		oracle, err := difftest.NewOracle(patterns)
		if err != nil {
			t.Fatalf("oracle %q: %v", patterns, err)
		}
		want := oracle.Reports(input)

		check := func(surface string, matches []Match, err error) bool {
			if err != nil {
				t.Logf("%s: %v", surface, err)
				return false
			}
			reports := make([]difftest.Report, len(matches))
			for i, m := range matches {
				reports[i] = difftest.Report{Pattern: m.Pattern, Offset: m.Offset}
			}
			if d := difftest.Diff(want, difftest.Set(reports)); d != "" {
				t.Logf("%s diverged from oracle on %q / %q: %s", surface, patterns, input, d)
				return false
			}
			return true
		}

		runM, _, runErr := loaded.RunContext(context.Background(), input)
		parM, _, parErr := loaded.RunParallelContext(context.Background(), input, 4)

		s, err := loaded.StreamContext(context.Background())
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		var streamM []Match
		for _, chunk := range g.Chunks(input) {
			streamM = append(streamM, feed(t, s, chunk)...)
		}
		s.Close()

		return check("Run", runM, runErr) &&
			check("RunParallel", parM, parErr) &&
			check("Stream", streamM, nil)
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
