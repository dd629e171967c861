package caformat

import (
	"bytes"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// FuzzCaformatDecode holds the decoder to its contract: arbitrary,
// bit-flipped or truncated input returns a structured error — never a
// panic, never an unbounded allocation. Each input is decoded twice:
// once raw (exercising the magic/length/CRC gates) and once re-framed in
// a valid container (exercising the section parser on bodies the CRC
// would otherwise reject). A successful decode must produce a placement
// that passes full verification, and encoding it again must give back
// the blob byte for byte: the decoder admits no input Encode would not
// write, so it is the oracle for the encoder.
func FuzzCaformatDecode(f *testing.F) {
	// Seed corpus: encodings of real rule sets across both designs, plus
	// truncated/flipped variants and degenerate frames.
	seed := func(kind arch.DesignKind, names []string, patterns ...string) []byte {
		n, err := regexc.CompileSet(patterns, regexc.Options{})
		if err != nil {
			f.Fatalf("CompileSet: %v", err)
		}
		pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(kind), Seed: 1})
		if err != nil {
			f.Fatalf("Map: %v", err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, pl, names); err != nil {
			f.Fatalf("Encode: %v", err)
		}
		return buf.Bytes()
	}
	a := seed(arch.PerfOpt, nil, "needle[0-9]+", "(foo|bar)baz")
	b := seed(arch.SpaceOpt, []string{"sig.one", "sig.two"}, "a.?b.?c", "x(yz)*w", "start[a-f]{2}end")
	f.Add(a)
	f.Add(b)
	f.Add(a[:len(a)/2])
	f.Add(a[:17])
	flipped := append([]byte(nil), b...)
	flipped[20] ^= 0x55
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("CAFMT001"))
	f.Add(Frame(nil))
	f.Add(Frame(bytes.Repeat([]byte{0xff}, 64)))
	reserved := append([]byte(nil), a[16:]...)
	reserved[2], reserved[3] = 0xff, 0xff
	f.Add(reserved)        // re-framed by the target: the body parser sees it
	f.Add(Frame(reserved)) // raw: past the CRC gate as it stands

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for _, blob := range [][]byte{data, Frame(data)} {
			pl, names, err := Decode(bytes.NewReader(blob))
			if err != nil {
				continue
			}
			if verr := pl.Verify(); verr != nil {
				t.Fatalf("decode succeeded but placement fails verification: %v", verr)
			}
			var again bytes.Buffer
			if err := Encode(&again, pl, names); err != nil {
				t.Fatalf("decoded placement does not encode: %v", err)
			}
			if !bytes.Equal(again.Bytes(), blob) {
				t.Fatalf("Encode(Decode(b)) != b: %d bytes in, %d out", len(blob), again.Len())
			}
		}
	})
}
