package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// snapshotMagic guards snapshot decoding.
var snapshotMagic = [8]byte{'C', 'A', 'S', 'N', 'A', 'P', '0', '1'}

// snapshotHeader is the fixed head of the encoding; Parts partitions
// follow, each as its word count and its words.
type snapshotHeader struct {
	Magic              [8]byte
	Pos, OutBuf, Parts int64
}

// Snapshot captures the machine's execution state: the input-symbol
// counter and every partition's active-state vector. This implements the
// paper's §2.9 suspend/resume: "the NFA process may also be suspended and
// later resumed by recording the number of input symbols processed and the
// active state vector to memory."
type Snapshot struct {
	// Pos is the input offset of the next symbol.
	Pos int64
	// Enabled holds each partition's active-state vector.
	Enabled [][wordsPerPartition]uint64
	// OutBuffered is the current output-buffer occupancy.
	OutBuffered int
}

// Snapshot captures the current execution state. Accumulated statistics
// and collected matches are NOT part of the snapshot (they belong to the
// monitoring side, not the architectural state).
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{Pos: m.pos, OutBuffered: m.derive(&m.res, m.basePos, m.baseBuf)}
	s.Enabled = make([][wordsPerPartition]uint64, len(m.parts))
	for i := range m.parts {
		s.Enabled[i] = m.parts[i].enabled
	}
	return s
}

// Restore resumes execution from a snapshot taken on a machine with the
// same placement. The snapshot may come from a client (a session resume)
// or a WAL, so it is held to what a run of this automaton can produce:
// the same partition count, and no enabled bit on a slot that holds no
// state. A rejected snapshot leaves the machine as it was.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.Enabled) != len(m.parts) {
		return fmt.Errorf("machine: snapshot has %d partitions, machine has %d", len(s.Enabled), len(m.parts))
	}
	var stray uint64
	for i := range m.parts {
		e, ok := &s.Enabled[i], &m.programmed[i]
		stray |= e[0]&^ok[0] | e[1]&^ok[1] | e[2]&^ok[2] | e[3]&^ok[3]
	}
	if stray != 0 {
		return errors.New("machine: snapshot is not from this automaton: it enables slots that hold no state")
	}
	m.pos, m.basePos, m.baseBuf = s.Pos, s.Pos, s.OutBuffered
	m.res = Result{}
	for i := range m.parts {
		p := &m.parts[i]
		for w := 0; w < wordsPerPartition; w++ {
			// Re-assert the always-on start mask: the hardware's all-input
			// states are enabled in every architectural state.
			p.enabled[w] = s.Enabled[i][w] | p.always[w]
			p.next[w] = 0
		}
	}
	m.setActive()
	return nil
}

// WriteTo serializes the snapshot (fixed little-endian framing).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(snapshotHeader{snapshotMagic, s.Pos, int64(s.OutBuffered), int64(len(s.Enabled))}); err != nil {
		return n, err
	}
	for i := range s.Enabled {
		if err := write(int64(wordsPerPartition)); err != nil {
			return n, err
		}
		if err := write(s.Enabled[i][:]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// snapshotPartitionBytes is one partition's encoding: its word count and
// its wordsPerPartition words.
const snapshotPartitionBytes = 8 + 8*wordsPerPartition

// ReadSnapshot deserializes a snapshot written by WriteTo. The bytes may
// come from a client (a session resume), so every header field is checked
// against what a machine can produce before anything is sized from it, and
// when r reports its remaining length (bytes.Reader, bytes.Buffer,
// strings.Reader) the partition count must fit in it.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr snapshotHeader
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("machine: snapshot header: %w", err)
	}
	if hdr.Magic != snapshotMagic {
		return nil, fmt.Errorf("machine: not a snapshot (bad magic %q)", hdr.Magic)
	}
	if hdr.Pos < 0 {
		return nil, fmt.Errorf("machine: snapshot position %d is negative", hdr.Pos)
	}
	if hdr.OutBuf < 0 || hdr.OutBuf >= OutputBufferEntries {
		return nil, fmt.Errorf("machine: snapshot output-buffer occupancy %d outside [0,%d)",
			hdr.OutBuf, OutputBufferEntries)
	}
	maxParts := int64(1 << 20)
	if l, ok := r.(interface{ Len() int }); ok {
		maxParts = min(maxParts, int64(l.Len())/snapshotPartitionBytes)
	}
	if hdr.Parts < 0 || hdr.Parts > maxParts {
		return nil, fmt.Errorf("machine: implausible partition count %d", hdr.Parts)
	}
	s := &Snapshot{Pos: hdr.Pos, OutBuffered: int(hdr.OutBuf), Enabled: make([][wordsPerPartition]uint64, hdr.Parts)}
	for i := range s.Enabled {
		var words int64
		if err := binary.Read(r, binary.LittleEndian, &words); err != nil {
			return nil, err
		}
		if words != wordsPerPartition {
			return nil, fmt.Errorf("machine: snapshot partition %d has %d words, want %d",
				i, words, wordsPerPartition)
		}
		if err := binary.Read(r, binary.LittleEndian, s.Enabled[i][:]); err != nil {
			return nil, err
		}
	}
	return s, nil
}
