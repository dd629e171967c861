// Package caformat is the persistence layer for compiled automata: a
// versioned, CRC-guarded binary format for a mapped placement (the
// compiler's output — NFA states with their 256-bit symbol classes,
// start/report behaviour and transition lists, plus the state→
// (partition, slot) location tables and per-partition way assignments),
// and a content-addressed on-disk compile cache keyed by a hash of the
// rules, front-end and compile options.
//
// The format is the repo's cold-start artifact: cad preload and WAL
// replay load a cached encoding instead of recompiling, and
// Automaton.Save/Load round-trip through it. A torn or corrupted file is
// a structured error, not a wrong match set, and state IDs are kept
// exactly, so a decoded placement is bit-identical to the encoded one —
// including the report codes and the per-partition enabled-vector layout
// that session snapshots depend on.
//
// On-disk layout (all fixed-width fields little-endian):
//
//	magic "CAFMT001" | u32 CRC-32C of body | u32 body length | body
//
//	body := u8 design kind | u8 flags (0) | u16 reserved (0)
//	      | u32 waysPerSlice | u32 partitionsPerWay
//	      | u32 numStates | u32 numPartitions | u32 numNames
//	      | states | locations | partitions | names
//
//	state     := class [4]u64 | u8 start | u8 report | i32 reportCode
//	           | u32 outDegree | outDegree × u32 dst
//	location  := u32 partition | u32 slot            (one per state)
//	partition := u32 way                             (one per partition)
//	name      := u32 length | bytes                  (aux signature names)
//
// Flags and reserved must be 0 and the decoder rejects anything else, so a
// body it accepts is exactly the bytes Encode writes for the placement it
// decodes to (FuzzCaformatDecode checks Encode(Decode(b)) == b).
//
// Cross edges are NOT serialized: they are fully determined by the NFA's
// edges plus the location tables and way geometry, so the decoder
// reconstructs them (Placement.DeriveCross) and runs Verify before
// returning. The decoder validates every count against the bytes
// actually present before allocating, so arbitrary, bit-flipped or
// truncated input returns a structured error — never a panic or an
// unbounded allocation (FuzzCaformatDecode holds it to that).
package caformat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
)

// Version is the format generation. It is baked into both the file magic
// and the cache key derivation, so a format change invalidates every
// cached entry instead of misparsing it.
const Version = 1

// magic guards decoding; the trailing "001" is Version.
var magic = [8]byte{'C', 'A', 'F', 'M', 'T', '0', '0', '1'}

// maxBody caps the declared body length (and therefore every allocation
// the decoder makes) at 1 GiB — far above any real rule set, far below
// anything that could OOM the process on a hostile header.
const maxBody = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes a placement (plus optional auxiliary signature
// names, e.g. ClamAV signature labels indexed by report code) in the
// caformat container. The encoding is deterministic: the same placement
// always produces the same bytes, which is what makes content-addressed
// cache entries stable.
//
// Every size is known from counts before a byte is written, so the whole
// container is appended into one buffer allocated at its exact length and
// handed to w in one Write.
func Encode(w io.Writer, pl *mapper.Placement, names []string) error {
	le := binary.LittleEndian
	n := pl.NFA.NumStates()
	size := 16 + bodyHeaderBytes + n*(minStateBytes+locationBytes) + 4*pl.NFA.NumEdges() +
		wayBytes*len(pl.Partitions)
	for _, name := range names {
		size += minNameBytes + len(name)
	}
	if size-16 > maxBody {
		return fmt.Errorf("caformat: encoded body of %d bytes exceeds the format limit", size-16)
	}

	// The header's CRC and body length are filled in once the body is there.
	buf := make([]byte, 16, size)
	copy(buf, magic[:])
	buf = append(buf, uint8(pl.Design.Kind), 0) // flags
	buf = le.AppendUint16(buf, 0)               // reserved
	buf = le.AppendUint32(buf, uint32(pl.WaysPerSlice))
	buf = le.AppendUint32(buf, uint32(pl.PartitionsPerWay))
	buf = le.AppendUint32(buf, uint32(n))
	buf = le.AppendUint32(buf, uint32(len(pl.Partitions)))
	buf = le.AppendUint32(buf, uint32(len(names)))
	for s := range pl.NFA.States {
		st := &pl.NFA.States[s]
		for _, word := range st.Class {
			buf = le.AppendUint64(buf, word)
		}
		rep := uint8(0)
		if st.Report {
			rep = 1
		}
		buf = append(buf, uint8(st.Start), rep)
		buf = le.AppendUint32(buf, uint32(st.ReportCode))
		buf = le.AppendUint32(buf, uint32(len(st.Out)))
		for _, v := range st.Out {
			buf = le.AppendUint32(buf, uint32(v))
		}
	}
	for s := 0; s < n; s++ {
		buf = le.AppendUint32(buf, uint32(pl.PartitionOf[s]))
		buf = le.AppendUint32(buf, uint32(pl.SlotOf[s]))
	}
	for i := range pl.Partitions {
		buf = le.AppendUint32(buf, uint32(pl.Partitions[i].Way))
	}
	for _, name := range names {
		buf = le.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
	}

	body := buf[16:]
	le.PutUint32(buf[8:], crc32.Checksum(body, crcTable))
	le.PutUint32(buf[12:], uint32(len(body)))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("caformat: write: %w", err)
	}
	return nil
}

// Frame wraps raw body bytes in a well-formed container (magic, CRC-32C,
// length). It exists for tests and fuzzing: framing an arbitrary body
// gets it past the CRC gate so the section parser itself is exercised,
// not just the checksum.
func Frame(body []byte) []byte {
	out := make([]byte, 16+len(body))
	copy(out[:8], magic[:])
	binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(body)))
	copy(out[16:], body)
	return out
}

// Decode reads a caformat container and reconstructs the placement it
// encodes, verified (Placement.VerifyOnce has already run, so building
// machines from it skips re-verification). Any corruption — bad magic,
// CRC mismatch, truncation, implausible counts — is a structured error.
func Decode(r io.Reader) (*mapper.Placement, []string, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("caformat: header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, nil, fmt.Errorf("caformat: not a caformat file (bad magic %q)", hdr[:8])
	}
	le := binary.LittleEndian
	wantCRC := le.Uint32(hdr[8:])
	bodyLen := le.Uint32(hdr[12:])
	if bodyLen > maxBody {
		return nil, nil, fmt.Errorf("caformat: implausible body length %d", bodyLen)
	}
	// Read the body incrementally: the buffer grows with the bytes
	// actually present, so a truncated file with a huge declared length
	// never allocates the declared size.
	var body bytes.Buffer
	body.Grow(int(min(bodyLen, 1<<22)))
	got, err := io.Copy(&body, io.LimitReader(r, int64(bodyLen)))
	if err != nil {
		return nil, nil, fmt.Errorf("caformat: body: %w", err)
	}
	if got != int64(bodyLen) {
		return nil, nil, fmt.Errorf("caformat: truncated body: %d of %d bytes", got, bodyLen)
	}
	if sum := crc32.Checksum(body.Bytes(), crcTable); sum != wantCRC {
		return nil, nil, fmt.Errorf("caformat: CRC mismatch (file %08x, computed %08x)", wantCRC, sum)
	}
	return decodeBody(body.Bytes())
}

// cursor is a bounds-checked sticky-error reader over the CRC-validated
// body. After the first failure every read returns zero and the error is
// reported once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("caformat: "+format, args...)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail("truncated section at offset %d (need %d of %d bytes)", c.off, n, len(c.b)-c.off)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

// Per-record minimum sizes, used to bound every count by the bytes
// actually present before allocating, and by Encode to size its buffer.
const (
	bodyHeaderBytes = 1 + 1 + 2 + 5*4    // kind, flags, reserved, geometry and counts
	minStateBytes   = 32 + 1 + 1 + 4 + 4 // class + start + report + code + outDegree
	locationBytes   = 8                  // partition + slot
	wayBytes        = 4
	minNameBytes    = 4
)

func decodeBody(b []byte) (*mapper.Placement, []string, error) {
	c := &cursor{b: b}
	kind := c.u8()
	if flags := c.u8(); flags != 0 && c.err == nil {
		return nil, nil, fmt.Errorf("caformat: unknown flags %#x", flags)
	}
	// Reserved is 0 in everything Encode writes; accepting anything else
	// would let two different artifacts decode to one placement.
	if reserved := c.u16(); reserved != 0 && c.err == nil {
		return nil, nil, fmt.Errorf("caformat: reserved field is %#x, want 0", reserved)
	}
	waysPerSlice := c.u32()
	partitionsPerWay := c.u32()
	numStates := c.u32()
	numPartitions := c.u32()
	numNames := c.u32()
	if c.err != nil {
		return nil, nil, c.err
	}
	if kind != uint8(arch.PerfOpt) && kind != uint8(arch.SpaceOpt) {
		return nil, nil, fmt.Errorf("caformat: unknown design kind %d", kind)
	}
	if waysPerSlice < 1 || waysPerSlice > 1024 || partitionsPerWay < 1 || partitionsPerWay > 1024 {
		return nil, nil, fmt.Errorf("caformat: implausible geometry (ways/slice %d, partitions/way %d)",
			waysPerSlice, partitionsPerWay)
	}
	// Every count is bounded by the bytes present before any allocation:
	// a hostile header cannot make the decoder allocate more than a small
	// multiple of the input it was actually given.
	if int(numStates) > c.remaining()/minStateBytes {
		return nil, nil, fmt.Errorf("caformat: %d states cannot fit in %d body bytes", numStates, c.remaining())
	}
	if int(numPartitions) > c.remaining()/wayBytes {
		return nil, nil, fmt.Errorf("caformat: %d partitions cannot fit in %d body bytes", numPartitions, c.remaining())
	}
	// Each decoded partition allocates a full 256-slot array — a 256×
	// amplification over its 4 bytes on disk. The mapper never emits an
	// empty partition, so bounding partitions by states keeps decoder
	// memory proportional to the input instead of letting a small hostile
	// body demand gigabytes of slot arrays.
	if numPartitions > numStates {
		return nil, nil, fmt.Errorf("caformat: %d partitions for %d states (empty partitions are not encodable)",
			numPartitions, numStates)
	}
	if int(numNames) > c.remaining()/minNameBytes {
		return nil, nil, fmt.Errorf("caformat: %d names cannot fit in %d body bytes", numNames, c.remaining())
	}

	pl := &mapper.Placement{
		NFA:              nfa.New(),
		Design:           arch.NewDesign(arch.DesignKind(kind)),
		WaysPerSlice:     int(waysPerSlice),
		PartitionsPerWay: int(partitionsPerWay),
	}
	// The per-state loops read whole records with take() and decode the
	// fields in place — one bounds check per record instead of one per
	// field keeps cold-start loads well under compile time.
	le := binary.LittleEndian
	// Pre-scan the states section to size one edge slab shared by every
	// Out slice. Each step only counts a record that fully fits in the
	// remaining bytes, so a hostile out-degree cannot inflate the slab:
	// the main loop below reports the truncation instead.
	totalEdges := 0
	for off, s := c.off, 0; s < int(numStates); s++ {
		if off+minStateBytes > len(c.b) {
			break
		}
		deg := int(le.Uint32(c.b[off+38:]))
		off += minStateBytes + deg*4
		if off > len(c.b) {
			break
		}
		totalEdges += deg
	}
	// Belt and braces on top of the pre-scan's fit check: each counted
	// edge occupies 4 encoded bytes, so the total can never exceed a
	// quarter of the buffer. A future edit to the pre-scan must not be
	// able to turn a hostile out-degree into a giant allocation.
	if totalEdges > len(c.b)/4 {
		return nil, nil, fmt.Errorf("caformat: %d total edges exceed the %d-byte states section", totalEdges, len(c.b))
	}
	edgeSlab := make([]nfa.StateID, totalEdges)
	pl.NFA.States = make([]nfa.State, numStates)
	for s := range pl.NFA.States {
		rec := c.take(minStateBytes)
		if c.err != nil {
			return nil, nil, c.err
		}
		st := &pl.NFA.States[s]
		for w := 0; w < 4; w++ {
			st.Class[w] = le.Uint64(rec[8*w:])
		}
		if start := rec[32]; start > uint8(nfa.AllInput) {
			return nil, nil, fmt.Errorf("caformat: state %d: bad start type %d", s, start)
		} else {
			st.Start = nfa.StartType(start)
		}
		if rep := rec[33]; rep > 1 {
			return nil, nil, fmt.Errorf("caformat: state %d: bad report flag %d", s, rep)
		} else {
			st.Report = rep == 1
		}
		st.ReportCode = int32(le.Uint32(rec[34:]))
		deg := le.Uint32(rec[38:])
		if int(deg) > c.remaining()/4 {
			return nil, nil, fmt.Errorf("caformat: state %d: out-degree %d exceeds remaining bytes", s, deg)
		}
		edges := c.take(int(deg) * 4)
		st.Out = edgeSlab[:deg:deg]
		edgeSlab = edgeSlab[deg:]
		for i := range st.Out {
			dst := le.Uint32(edges[4*i:])
			if dst >= numStates {
				return nil, nil, fmt.Errorf("caformat: state %d: edge to out-of-range state %d", s, dst)
			}
			st.Out[i] = nfa.StateID(dst)
		}
	}
	pl.PartitionOf = make([]int32, numStates)
	pl.SlotOf = make([]int32, numStates)
	locs := c.take(int(numStates) * locationBytes)
	if c.err != nil {
		return nil, nil, c.err
	}
	for s := 0; s < int(numStates); s++ {
		pi := le.Uint32(locs[locationBytes*s:])
		slot := le.Uint32(locs[locationBytes*s+4:])
		if pi >= numPartitions {
			return nil, nil, fmt.Errorf("caformat: state %d placed in out-of-range partition %d", s, pi)
		}
		if slot >= arch.PartitionSTEs {
			return nil, nil, fmt.Errorf("caformat: state %d placed in out-of-range slot %d", s, slot)
		}
		pl.PartitionOf[s] = int32(pi)
		pl.SlotOf[s] = int32(slot)
	}
	pl.Partitions = make([]mapper.Partition, numPartitions)
	ways := c.take(int(numPartitions) * wayBytes)
	if c.err != nil {
		return nil, nil, c.err
	}
	// One slot slab for all partitions (numPartitions ≤ numStates keeps it
	// proportional to the input), filled with None in a single pass.
	slotSlab := make([]nfa.StateID, int(numPartitions)*arch.PartitionSTEs)
	for j := range slotSlab {
		slotSlab[j] = nfa.None
	}
	for i := range pl.Partitions {
		way := le.Uint32(ways[wayBytes*i:])
		if way >= 1<<20 {
			return nil, nil, fmt.Errorf("caformat: partition %d in implausible way %d", i, way)
		}
		slots := slotSlab[i*arch.PartitionSTEs : (i+1)*arch.PartitionSTEs : (i+1)*arch.PartitionSTEs]
		pl.Partitions[i] = mapper.Partition{Slots: slots, Way: int(way)}
	}
	for s := 0; s < int(numStates); s++ {
		p := &pl.Partitions[pl.PartitionOf[s]]
		if p.Slots[pl.SlotOf[s]] != nfa.None {
			return nil, nil, fmt.Errorf("caformat: slot (%d,%d) assigned twice", pl.PartitionOf[s], pl.SlotOf[s])
		}
		p.Slots[pl.SlotOf[s]] = nfa.StateID(s)
		p.Used++
	}
	names := make([]string, 0, numNames)
	for i := 0; i < int(numNames); i++ {
		n := c.u32()
		if int(n) > c.remaining() {
			c.fail("name %d: length %d exceeds remaining bytes", i, n)
		}
		names = append(names, string(c.take(int(n))))
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	if c.remaining() != 0 {
		return nil, nil, fmt.Errorf("caformat: %d trailing bytes after the last section", c.remaining())
	}

	// Cross edges are derived, not stored.
	pl.DeriveCross()
	if err := pl.VerifyOnce(); err != nil {
		return nil, nil, fmt.Errorf("caformat: decoded placement fails verification: %w", err)
	}
	if len(names) == 0 {
		names = nil
	}
	return pl, names, nil
}
