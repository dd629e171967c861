package machine

import (
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// TestFlatRowLayoutMatchesClasses verifies the flattened SRAM programming:
// for every mapped state and every symbol, the bit in the partition's
// symbol row equals the state's character-class membership — the 256×256
// layout of the paper's two 4 KB arrays.
func TestFlatRowLayoutMatchesClasses(t *testing.T) {
	n, err := regexc.CompileSet([]string{"ab[c-f]x*", "[0-9]{3}", "q.*z", "."}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range pl.NFA.States {
		st := &pl.NFA.States[s]
		pi, slot := int(pl.PartitionOf[s]), int(pl.SlotOf[s])
		p := &m.parts[pi]
		for sym := 0; sym < 256; sym++ {
			got := p.rows[sym][slot>>6]&(1<<(slot&63)) != 0
			if want := st.Class.Has(byte(sym)); got != want {
				t.Fatalf("state %d (partition %d slot %d) symbol %#x: row bit %v, class %v",
					s, pi, slot, sym, got, want)
			}
		}
	}
}

// TestFIFORefillsChunkedMatchesWhole is the regression test for refill
// accounting: however the stream is chunked, each 64-byte cache line is
// counted once, so chunked and whole-input runs agree.
func TestFIFORefillsChunkedMatchesWhole(t *testing.T) {
	n, err := regexc.CompileSet([]string{"abc"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1000)
	for i := range input {
		input[i] = byte(i)
	}
	whole, err := New(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(whole, input).FIFORefills
	if expect := int64((len(input) + 63) / 64); want != expect {
		t.Fatalf("whole-input refills = %d, want ceil(%d/64) = %d", want, len(input), expect)
	}
	for _, sizes := range [][]int{
		{1},          // byte at a time: every chunk shares lines with its neighbors
		{3, 7, 13},   // unaligned, line-straddling chunks
		{64},         // exactly line-aligned
		{100, 1, 63}, // mixed
		{500, 500},   // big unaligned halves
	} {
		m, err := New(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		for off, i := 0, 0; off < len(input); i++ {
			size := sizes[i%len(sizes)]
			if off+size > len(input) {
				size = len(input) - off
			}
			res = mustRun(m, input[off:off+size])
			off += size
		}
		if res.FIFORefills != want {
			t.Errorf("chunk sizes %v: refills = %d, whole-input = %d", sizes, res.FIFORefills, want)
		}
	}
}
