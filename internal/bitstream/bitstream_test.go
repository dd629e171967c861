package bitstream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

func buildPlacement(t testing.TB, pats []string, kind arch.DesignKind) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(kind), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func eventSet(ms []machine.Match) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, m := range ms {
		out[[2]int64{m.Offset, int64(m.Code)}] = true
	}
	return out
}

func TestRoundTripBehaviour(t *testing.T) {
	var pats []string
	for i := 0; i < 60; i++ {
		pats = append(pats, fmt.Sprintf("sig%02d[af]{2}x+y", i))
	}
	pats = append(pats, "long.*gap.*rule") // multi-partition pressure
	for _, kind := range []arch.DesignKind{arch.PerfOpt, arch.SpaceOpt} {
		pl := buildPlacement(t, pats, kind)
		var buf bytes.Buffer
		if err := Write(&buf, pl); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(buf.Len()), ImageSizeBytes(pl); got != want {
			t.Errorf("%v: image size %d, predicted %d", kind, got, want)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if loaded.NumPartitions() != pl.NumPartitions() {
			t.Fatalf("%v: partitions %d vs %d", kind, loaded.NumPartitions(), pl.NumPartitions())
		}
		if loaded.NFA.NumStates() != pl.NFA.NumStates() || loaded.NFA.NumEdges() != pl.NFA.NumEdges() {
			t.Fatalf("%v: NFA shape changed: %d/%d vs %d/%d", kind,
				loaded.NFA.NumStates(), loaded.NFA.NumEdges(), pl.NFA.NumStates(), pl.NFA.NumEdges())
		}
		// Behavioural equivalence (state IDs are renumbered by design).
		m1, err := machine.New(pl, machine.Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := machine.New(loaded, machine.Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		in := make([]byte, 3000)
		for i := range in {
			in[i] = byte("sigafxy0123 "[r.Intn(12)])
		}
		copy(in[100:], "sig07afxxxy")
		r1, err1 := m1.RunContext(context.Background(), in)
		r2, err2 := m2.RunContext(context.Background(), in)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: run errors %v, %v", kind, err1, err2)
		}
		e1, e2 := eventSet(r1.Matches), eventSet(r2.Matches)
		if len(e1) != len(e2) || len(e1) == 0 {
			t.Fatalf("%v: events %d vs %d", kind, len(e1), len(e2))
		}
		for k := range e1 {
			if !e2[k] {
				t.Fatalf("%v: loaded machine missing event %v", kind, k)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXXXXXX________________________________________"),
		bytes.Repeat([]byte{0xff}, 200),
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage should not load", i)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	pl := buildPlacement(t, []string{"abcdef", "ghijkl"}, arch.PerfOpt)
	var buf bytes.Buffer
	if err := Write(&buf, pl); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{16, len(full) / 2, len(full) - 4} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
}

func TestImageSizeTracksPartitions(t *testing.T) {
	small := buildPlacement(t, []string{"tiny"}, arch.PerfOpt)
	var pats []string
	for i := 0; i < 100; i++ {
		pats = append(pats, fmt.Sprintf("bigger-rule-%03d-with-more-states", i))
	}
	big := buildPlacement(t, pats, arch.PerfOpt)
	if ImageSizeBytes(big) <= ImageSizeBytes(small) {
		t.Error("bigger placements should have bigger images")
	}
}

func BenchmarkWriteLoad(b *testing.B) {
	var pats []string
	for i := 0; i < 100; i++ {
		pats = append(pats, fmt.Sprintf("bench%03d[0-9]{4}", i))
	}
	pl := buildPlacement(b, pats, arch.PerfOpt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, pl); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
