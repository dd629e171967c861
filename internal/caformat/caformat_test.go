package caformat

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// compilePlacement maps a small rule set for round-trip tests.
func compilePlacement(t *testing.T, kind arch.DesignKind, patterns []string) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet(patterns, regexc.Options{})
	if err != nil {
		t.Fatalf("CompileSet: %v", err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(kind), Seed: 1})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return pl
}

var testPatterns = []string{
	"needle[0-9]+",
	"(foo|bar)baz",
	"a.?b.?c",
	"start[a-f]{3}end",
	"x(yz)*w",
}

func encode(t *testing.T, pl *mapper.Placement, names []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, pl, names); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, kind := range []arch.DesignKind{arch.PerfOpt, arch.SpaceOpt} {
		t.Run(kind.String(), func(t *testing.T) {
			pl := compilePlacement(t, kind, testPatterns)
			names := []string{"alpha", "beta", "", "gamma-with-Ünïcode"}
			data := encode(t, pl, names)

			got, gotNames, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(gotNames, names) {
				t.Errorf("names: got %q, want %q", gotNames, names)
			}
			if got.Design.Kind != kind {
				t.Errorf("design kind: got %v, want %v", got.Design.Kind, kind)
			}
			if got.WaysPerSlice != pl.WaysPerSlice || got.PartitionsPerWay != pl.PartitionsPerWay {
				t.Errorf("geometry: got %d/%d, want %d/%d",
					got.WaysPerSlice, got.PartitionsPerWay, pl.WaysPerSlice, pl.PartitionsPerWay)
			}
			if !reflect.DeepEqual(got.NFA.States, pl.NFA.States) {
				t.Errorf("NFA states differ after round trip")
			}
			if !reflect.DeepEqual(got.PartitionOf, pl.PartitionOf) || !reflect.DeepEqual(got.SlotOf, pl.SlotOf) {
				t.Errorf("location tables differ after round trip")
			}
			if !reflect.DeepEqual(got.Partitions, pl.Partitions) {
				t.Errorf("partitions differ after round trip")
			}
			if err := got.Verify(); err != nil {
				t.Errorf("decoded placement fails Verify: %v", err)
			}
			// Cross edges are reconstructed; compare as sets since order may
			// differ from the mapper's.
			if len(got.Cross) != len(pl.Cross) {
				t.Fatalf("cross edges: got %d, want %d", len(got.Cross), len(pl.Cross))
			}
			want := make(map[mapper.CrossEdge]int)
			for _, e := range pl.Cross {
				want[e]++
			}
			for _, e := range got.Cross {
				if want[e] == 0 {
					t.Fatalf("reconstructed cross edge %+v not in original", e)
				}
				want[e]--
			}

			// Determinism: re-encoding the decoded placement reproduces the
			// exact bytes — the property content addressing relies on.
			data2 := encode(t, got, gotNames)
			if !bytes.Equal(data, data2) {
				t.Errorf("encoding is not deterministic across a round trip")
			}
		})
	}
}

func TestRoundTripNoNames(t *testing.T) {
	pl := compilePlacement(t, arch.PerfOpt, []string{"abc"})
	data := encode(t, pl, nil)
	_, names, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if names != nil {
		t.Errorf("names: got %q, want nil", names)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	pl := compilePlacement(t, arch.PerfOpt, testPatterns)
	data := encode(t, pl, []string{"n1", "n2"})

	t.Run("bad magic", func(t *testing.T) {
		d := append([]byte(nil), data...)
		d[0] ^= 0xff
		if _, _, err := Decode(bytes.NewReader(d)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want bad-magic error", err)
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		// Flip one byte at a sample of positions across the body: every such
		// corruption must be caught by the CRC (positions ≥ 16) or header
		// validation, never panic.
		for pos := 8; pos < len(data); pos += 7 {
			d := append([]byte(nil), data...)
			d[pos] ^= 0x41
			if _, _, err := Decode(bytes.NewReader(d)); err == nil {
				t.Fatalf("flip at %d: decode succeeded on corrupted input", pos)
			}
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut += 11 {
			if _, _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation at %d: decode succeeded", cut)
			}
		}
	})
	t.Run("trailing garbage inside frame", func(t *testing.T) {
		// A well-formed CRC over a body with extra bytes must still fail.
		body := append(append([]byte(nil), data[16:]...), 0xaa)
		if _, _, err := Decode(bytes.NewReader(Frame(body))); err == nil {
			t.Fatal("decode accepted trailing bytes")
		}
	})
	t.Run("huge declared length", func(t *testing.T) {
		d := append([]byte(nil), data[:16]...)
		d[12], d[13], d[14], d[15] = 0xff, 0xff, 0xff, 0x7f // ~2GB declared, no body
		if _, _, err := Decode(bytes.NewReader(d)); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("err = %v, want implausible-length error", err)
		}
	})
	t.Run("reserved field set", func(t *testing.T) {
		// The layout says reserved is 0. A decoder that skipped it would
		// accept a body Encode never writes — one that re-encodes to other
		// bytes than it came in as.
		body := append([]byte(nil), data[16:]...)
		body[2], body[3] = 0xff, 0xff
		if _, _, err := Decode(bytes.NewReader(Frame(body))); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("err = %v, want reserved-field error", err)
		}
	})
	t.Run("empty body", func(t *testing.T) {
		if _, _, err := Decode(bytes.NewReader(Frame(nil))); err == nil {
			t.Fatal("decode accepted empty body")
		}
	})
	t.Run("hostile out-degree", func(t *testing.T) {
		// Rewrite the first state's out-degree to ~2^31 with a correct CRC.
		// The pre-scan must refuse to count it toward the shared edge slab
		// and the record loop must reject it — a giant declared degree can
		// never become a giant allocation.
		body := append([]byte(nil), data[16:]...)
		const degOff = 24 + 38 // header fields, then the first record's degree field
		body[degOff], body[degOff+1], body[degOff+2], body[degOff+3] = 0xff, 0xff, 0xff, 0x7f
		if _, _, err := Decode(bytes.NewReader(Frame(body))); err == nil || !strings.Contains(err.Error(), "out-degree") {
			t.Fatalf("err = %v, want out-degree error", err)
		}
	})
	t.Run("counts exceeding body", func(t *testing.T) {
		// Valid header fields but a state count far beyond the bytes present.
		body := make([]byte, 24)
		body[0] = 0 // design kind
		putU32 := func(off int, v uint32) {
			body[off] = byte(v)
			body[off+1] = byte(v >> 8)
			body[off+2] = byte(v >> 16)
			body[off+3] = byte(v >> 24)
		}
		putU32(4, 8)      // waysPerSlice
		putU32(8, 8)      // partitionsPerWay
		putU32(12, 1<<25) // numStates: impossible for 0 remaining bytes
		putU32(16, 1)     // numPartitions
		putU32(20, 0)     // numNames
		if _, _, err := Decode(bytes.NewReader(Frame(body))); err == nil || !strings.Contains(err.Error(), "cannot fit") {
			t.Fatalf("err = %v, want cannot-fit error", err)
		}
	})
}

// TestDecodeMutatedBodies re-frames single-byte mutations of a valid
// body with a correct CRC, so the section parser itself (not the
// checksum) handles the corruption: each mutation must either decode to
// a placement that verifies, or return a structured error — never panic.
func TestDecodeMutatedBodies(t *testing.T) {
	pl := compilePlacement(t, arch.SpaceOpt, testPatterns)
	data := encode(t, pl, []string{"sig-a", "sig-b"})
	body := data[16:]
	for pos := 0; pos < len(body); pos++ {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			d := append([]byte(nil), body...)
			d[pos] ^= x
			got, _, err := Decode(bytes.NewReader(Frame(d)))
			if err == nil {
				if verr := got.Verify(); verr != nil {
					t.Fatalf("mutation at %d (^%#x): decode succeeded but Verify fails: %v", pos, x, verr)
				}
			}
		}
	}
}

func TestDecodeShortHeader(t *testing.T) {
	if _, _, err := Decode(bytes.NewReader([]byte("CAFM"))); err == nil {
		t.Fatal("decode accepted short header")
	}
}

func TestEncodeWriterError(t *testing.T) {
	pl := compilePlacement(t, arch.PerfOpt, []string{"abc"})
	if err := Encode(failWriter{}, pl, nil); err == nil {
		t.Fatal("Encode ignored writer error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("boom") }

func TestCache(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "sub", "cache")
	c, err := NewCache(root)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	k1 := NewKey("regex", "perf", "a", "b")
	k2 := NewKey("regex", "perf", "ab", "")
	if k1 == k2 {
		t.Fatal("length-prefixed parts collided")
	}
	if k1 != NewKey("regex", "perf", "a", "b") {
		t.Fatal("key derivation not deterministic")
	}
	if len(k1.String()) != 64 {
		t.Fatalf("key hex length = %d, want 64", len(k1.String()))
	}

	if _, err := c.Get(k1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get on empty cache: err = %v, want ErrNotExist", err)
	}
	data := []byte("payload-bytes")
	if err := c.Put(k1, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get(k1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v; want %q", got, err, data)
	}
	// No stray temp files survive a successful Put.
	ents, _ := os.ReadDir(root)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s", e.Name())
		}
	}
	if err := c.Remove(k1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := c.Get(k1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get after Remove: err = %v, want ErrNotExist", err)
	}
	if err := c.Remove(k1); err != nil {
		t.Fatalf("Remove of absent entry: %v", err)
	}
}

func TestCacheEndToEnd(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	pl := compilePlacement(t, arch.SpaceOpt, testPatterns)
	data := encode(t, pl, nil)
	key := NewKey("regex", strings.Join(testPatterns, "\n"))
	if err := c.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	blob, err := c.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	got, _, err := Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Decode cached entry: %v", err)
	}
	if got.NFA.NumStates() != pl.NFA.NumStates() {
		t.Fatalf("states: got %d, want %d", got.NFA.NumStates(), pl.NFA.NumStates())
	}
	// A corrupted entry decodes to an error — the caller's cue to Remove
	// and recompile.
	blob[len(blob)/2] ^= 0x10
	if _, _, err := Decode(bytes.NewReader(blob)); err == nil {
		t.Fatal("Decode accepted corrupted cache entry")
	}
}

func TestNewCacheBadDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(filepath.Join(f, "sub")); err == nil {
		t.Fatal("NewCache under a regular file succeeded")
	}
}
