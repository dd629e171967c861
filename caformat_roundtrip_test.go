package cacheautomaton

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"cacheautomaton/internal/difftest"
)

// TestSaveLoadRoundTripProperty: for random pattern sets and inputs,
// Load(Save(a)) is indistinguishable from the freshly compiled automaton
// on every execution surface — Run, RunParallel, Stream, and RunBatch all
// serve exactly the Go-regexp oracle's report set — and Save is
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

		l, err := loaded.LeaseContext(context.Background())
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		items, batchErr := l.RunBatch(context.Background(), []string{string(input)})
		l.Release()
		var batchM []Match
		if batchErr == nil {
			if items[0].Err != nil {
				batchErr = items[0].Err
			} else {
				batchM = items[0].Matches
			}
		}

		return check("Run", runM, runErr) &&
			check("RunParallel", parM, parErr) &&
			check("Stream", streamM, nil) &&
			check("RunBatch", batchM, batchErr)
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
