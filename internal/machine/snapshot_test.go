package machine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

func TestSuspendResumeMidMatch(t *testing.T) {
	// Suspend in the middle of a match; the resumed machine must complete
	// it exactly as an uninterrupted run would (§2.9).
	n, err := regexc.CompileSet([]string{"abcdef", "x[yz]{3}w"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("..abcdef..xyzyw..abcdef")

	ref, _ := New(pl, Options{CollectMatches: true})
	want := mustRun(ref, input)

	for cut := 1; cut < len(input)-1; cut++ {
		m1, _ := New(pl, Options{CollectMatches: true})
		r1 := mustRun(m1, input[:cut])
		snap := m1.Snapshot()

		// Serialize + deserialize the snapshot.
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap2, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}

		m2, _ := New(pl, Options{CollectMatches: true})
		if err := m2.Restore(snap2); err != nil {
			t.Fatal(err)
		}
		if m2.Pos() != int64(cut) {
			t.Fatalf("cut %d: resumed Pos = %d", cut, m2.Pos())
		}
		r2 := mustRun(m2, input[cut:])

		total := int64(len(r1.Matches) + len(r2.Matches))
		if total != want.MatchCount {
			t.Fatalf("cut %d: %d+%d matches, want %d", cut, len(r1.Matches), len(r2.Matches), want.MatchCount)
		}
		combined := append(append([]Match(nil), r1.Matches...), r2.Matches...)
		for i, m := range combined {
			if m.Offset != want.Matches[i].Offset || m.Code != want.Matches[i].Code {
				t.Fatalf("cut %d: match %d = %+v, want %+v", cut, i, m, want.Matches[i])
			}
		}
	}
}

func TestRestoreRejectsMismatchedPlacement(t *testing.T) {
	n1, _ := regexc.CompileSet([]string{"abc"}, regexc.Options{})
	n2, _ := regexc.CompileSet([]string{strings.Repeat("long", 200)}, regexc.Options{})
	pl1, _ := mapper.Map(n1, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	pl2, _ := mapper.Map(n2, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	m1, _ := New(pl1, Options{})
	m2, _ := New(pl2, Options{})
	if err := m2.Restore(m1.Snapshot()); err == nil {
		t.Error("restoring a 1-partition snapshot into a multi-partition machine should fail")
	}
}

// TestRestoreRejectsStrayBits: a snapshot arrives over the wire or out of
// a WAL, and one that enables a slot holding no state cannot have been
// taken on this automaton. It is refused — in word 0, in the words a
// one-word machine never sweeps, and in a partition's unused tail — and
// the machine keeps the state it had.
func TestRestoreRejectsStrayBits(t *testing.T) {
	small, _ := buildPool(t, []string{"needle[0-9]", "x[abc]+y"}, 0)
	wide, _ := buildPool(t, manyLiteralPatterns(60), 0)
	if !small.oneWord || wide.NumPartitions() < 2 {
		t.Fatalf("want a one-word and a multi-partition machine, got oneWord=%v and %d partitions",
			small.oneWord, wide.NumPartitions())
	}
	last := wide.NumPartitions() - 1
	if wide.programmed[last][3]>>63 != 0 {
		t.Fatalf("partition %d is full; the test needs an unused tail", last)
	}
	for _, tc := range []struct {
		name       string
		m          *Machine
		part, word int
		bit        uint
	}{
		{"word 0 of a one-word machine", small, 0, 0, 63},
		{"word 1 of a one-word machine", small, 0, 1, 0},
		{"word 3 of a one-word machine", small, 0, 3, 17},
		{"unused tail of a partition", wide, last, 3, 63},
	} {
		mustRun(tc.m, []byte("xab need common07he"))
		before := tc.m.Snapshot()
		bad := tc.m.Snapshot()
		bad.Pos++
		bad.Enabled[tc.part][tc.word] |= 1 << tc.bit
		if err := tc.m.Restore(bad); err == nil {
			t.Errorf("%s: a snapshot enabling a slot that holds no state was restored", tc.name)
		}
		if after := tc.m.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: a refused snapshot moved the machine from %+v to %+v", tc.name, before, after)
		}
	}
}

// TestRestoreAcceptsParentSnapshot: the bytes are a mid-match snapshot
// ("xab need", then suspend) written by the commit before Restore checked
// enabled bits; they must restore, re-encode to themselves, and finish
// the match.
func TestRestoreAcceptsParentSnapshot(t *testing.T) {
	golden, err := hex.DecodeString("" +
		"4341534e41503031" + "0800000000000000" + "0000000000000000" + "0100000000000000" +
		"0400000000000000" + "8900000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := buildPool(t, []string{"needle[0-9]", "x[abc]+y"}, 0)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := m.Snapshot().WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), golden) {
		t.Fatalf("restored state re-encodes as\n%x, was\n%x", wire.Bytes(), golden)
	}
	res := mustRun(m, []byte("le7 cy"))
	if len(res.Matches) != 1 || res.Matches[0].Offset != 10 || res.Matches[0].Code != 0 {
		t.Fatalf("resumed stream reported %+v, want needle[0-9] at offset 10", res.Matches)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should not decode")
	}
}

func TestSnapshotExcludesStatistics(t *testing.T) {
	n, _ := regexc.CompileSet([]string{"aa"}, regexc.Options{})
	pl, _ := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	m, _ := New(pl, Options{CollectMatches: true})
	mustRun(m, []byte("aaaa"))
	snap := m.Snapshot()
	m2, _ := New(pl, Options{CollectMatches: true})
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res := mustRun(m2, nil)
	if res.MatchCount != 0 || res.Activity.Cycles != 0 {
		t.Error("restored machine should start with clean statistics")
	}
}

// TestSnapshotWireFormatGolden holds the snapshot encoding to the bytes
// WALs and clients already have: magic, position, occupancy, partition
// count, then each partition as its word count and its words, all
// little-endian. The bytes were written by the commit before Enabled
// became an array type; both directions must keep agreeing with them.
func TestSnapshotWireFormatGolden(t *testing.T) {
	snap := &Snapshot{Pos: 4242, OutBuffered: 7, Enabled: [][4]uint64{{1, 2, 3, 4}, {0, 0, 1 << 63, 0}}}
	golden, err := hex.DecodeString("" +
		"4341534e41503031" + "9210000000000000" + "0700000000000000" + "0200000000000000" +
		"0400000000000000" + "0100000000000000" + "0200000000000000" + "0300000000000000" + "0400000000000000" +
		"0400000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000080" + "0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if n, err := snap.WriteTo(&wire); err != nil || n != int64(len(golden)) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(golden))
	}
	if !bytes.Equal(wire.Bytes(), golden) {
		t.Fatalf("wire format moved:\n got %x\nwant %x", wire.Bytes(), golden)
	}
	back, err := ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatalf("golden bytes decode to %+v, want %+v", back, snap)
	}
}

// FuzzReadSnapshot feeds the snapshot decoder what a client can send in
// OpenSessionRequest.SnapshotB64: it must never panic, never size an
// allocation from a header the payload does not back, and accept only
// canonical encodings of states a machine can be in — and Restore must
// survive whatever it accepts.
func FuzzReadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	snap := &Snapshot{Pos: 4242, OutBuffered: 7, Enabled: [][4]uint64{{1, 2, 3, 4}, {0, 0, 1 << 63, 0}}}
	if _, err := snap.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-5]) // truncated mid-partition
	flipped := bytes.Clone(valid.Bytes())
	flipped[32] ^= 0x04 // first partition's word count: 4 becomes 0
	f.Add(flipped)
	hostile := bytes.Clone(valid.Bytes()[:32])
	binary.LittleEndian.PutUint64(hostile[24:], 1<<20) // a million partitions, no payload
	f.Add(hostile)

	m, _ := buildPool(f, []string{"needle[0-9]", "x[abc]+y"}, 0)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		s, err := ReadSnapshot(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if s.Pos < 0 || s.OutBuffered < 0 || s.OutBuffered >= OutputBufferEntries {
			t.Fatalf("accepted impossible state: pos %d, out-buffered %d", s.Pos, s.OutBuffered)
		}
		var again bytes.Buffer
		if _, err := s.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted a non-canonical encoding: %x re-encodes as %x", consumed, again.Bytes())
		}
		// What decodes goes on to Restore: a machine must refuse it or run
		// from it, never fall over.
		if m.Restore(s) == nil {
			mustRun(m, []byte("xab needle7"))
		}
	})
}
