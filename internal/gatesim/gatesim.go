// Package gatesim executes a mapped Cache Automaton at the gate level:
// every partition's STEs live in bit-accurate SRAM arrays (package sram),
// and every transition — local or global — is routed through electrically
// modeled 8T crossbar switches (package crossbar) wired exactly as §2.4
// describes: a 280×256 local switch per partition whose inputs are the
// partition's 256 match-AND-active lines plus 16 wires from G-Switch-1 and
// 8 from G-Switch-4.
//
// It is orders of magnitude slower than package machine's vector
// simulator and exists as its electrical ground truth: the tests step the
// two side by side and compare every cycle's matches, enabled-state count
// and active-partition count.
package gatesim

import (
	"fmt"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/crossbar"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/sram"
)

// Match is one gate-level report event.
type Match struct {
	Offset int64
	Code   int32
	State  nfa.StateID
}

// partitionHW is the physical realization of one partition.
type partitionHW struct {
	arrays  *sram.PartitionArrays
	lswitch *crossbar.Switch // 280×256
	enabled *bitvec.Vector
	always  *bitvec.Vector
	startOD *bitvec.Vector
	reports *bitvec.Vector
	code    []int32
	state   []nfa.StateID
	// way-group-local index: which input/output port block this partition
	// owns on its G-switches.
	g1Block int
	g4Block int
}

// gswitch is one global switch instance and its port bookkeeping.
type gswitch struct {
	sw *crossbar.Switch
	// srcPort[(partition,slot)] = allocated input port.
	srcPort map[[2]int32]int
	// dstWire[(partition,srcPartition,srcSlot)] = allocated destination
	// wire index within the destination's L-switch input block.
	dstWire map[[3]int32]int
	// nextSrc[partition] / nextDst[partition] count allocated ports.
	nextSrc map[int32]int
	nextDst map[int32]int
}

func newGSwitch(rows, cols int) *gswitch {
	sw, _ := crossbar.New(rows, cols)
	return &gswitch{
		sw:      sw,
		srcPort: map[[2]int32]int{},
		dstWire: map[[3]int32]int{},
		nextSrc: map[int32]int{},
		nextDst: map[int32]int{},
	}
}

// Machine is the gate-level simulator.
type Machine struct {
	pl    *mapper.Placement
	parts []*partitionHW
	// g1 switches indexed by way; g4 switches by way-group.
	g1 map[int]*gswitch
	g4 map[int]*gswitch
	// per-design constants.
	g1Signals, g4Signals int
	pos                  int64
	// scratch
	lin *bitvec.Vector
}

// New builds the gate-level machine, programming SRAM columns and every
// switch cross-point from the placement.
func New(pl *mapper.Placement) (*Machine, error) {
	if err := pl.Verify(); err != nil {
		return nil, fmt.Errorf("gatesim: %w", err)
	}
	for _, ce := range pl.Cross {
		if ce.Via == mapper.ViaChained {
			return nil, fmt.Errorf("gatesim: chained-G4 placements are not supported at gate level")
		}
	}
	d := pl.Design
	m := &Machine{
		pl:        pl,
		g1:        map[int]*gswitch{},
		g4:        map[int]*gswitch{},
		g1Signals: d.G1SignalsPerPartition,
		g4Signals: d.G4SignalsPerPartition,
		lin:       bitvec.NewVector(d.LSwitch.Rows),
	}
	size := arch.PartitionSTEs
	// Build partitions.
	for range pl.Partitions {
		lsw, err := crossbar.New(d.LSwitch.Rows, d.LSwitch.Cols)
		if err != nil {
			return nil, err
		}
		hw := &partitionHW{
			arrays:  sram.NewPartitionArrays(d.Kind),
			lswitch: lsw,
			enabled: bitvec.NewVector(size),
			always:  bitvec.NewVector(size),
			startOD: bitvec.NewVector(size),
			reports: bitvec.NewVector(size),
			code:    make([]int32, size),
			state:   make([]nfa.StateID, size),
		}
		m.parts = append(m.parts, hw)
	}
	// Assign G-switch port blocks: partitions within a way get consecutive
	// blocks on the way's G1; partitions within a way-group get blocks on
	// the group's G4.
	wayCount := map[int]int{}
	groupCount := map[int]int{}
	for pi := range pl.Partitions {
		way := pl.Partitions[pi].Way
		group := way / 4
		m.parts[pi].g1Block = wayCount[way]
		wayCount[way]++
		m.parts[pi].g4Block = groupCount[group]
		groupCount[group]++
	}
	// Program STE columns, masks and local edges.
	n := pl.NFA
	for s := range n.States {
		st := &n.States[s]
		pi, slot := int(pl.PartitionOf[s]), int(pl.SlotOf[s])
		hw := m.parts[pi]
		if err := hw.arrays.WriteSTE(slot, st.Class); err != nil {
			return nil, err
		}
		hw.state[slot] = nfa.StateID(s)
		hw.code[slot] = st.ReportCode
		switch st.Start {
		case nfa.AllInput:
			hw.always.Set(slot)
		case nfa.StartOfData:
			hw.startOD.Set(slot)
		}
		if st.Report {
			hw.reports.Set(slot)
		}
		for _, v := range st.Out {
			if pl.PartitionOf[v] == int32(pi) {
				if err := hw.lswitch.SetCrossPoint(slot, int(pl.SlotOf[v]), true); err != nil {
					return nil, err
				}
			}
		}
	}
	// Program global switches.
	for _, ce := range pl.Cross {
		if err := m.programCross(ce); err != nil {
			return nil, err
		}
	}
	m.Reset()
	return m, nil
}

// gswitchFor returns (creating on demand) the switch carrying the edge.
func (m *Machine) gswitchFor(ce mapper.CrossEdge) (*gswitch, int, int, int) {
	d := m.pl.Design
	if ce.Via == mapper.ViaG1 {
		way := m.pl.Partitions[ce.SrcPartition].Way
		gs, ok := m.g1[way]
		if !ok {
			gs = newGSwitch(d.GSwitch1.Rows, d.GSwitch1.Cols)
			m.g1[way] = gs
		}
		return gs, m.g1Signals, m.parts[ce.SrcPartition].g1Block, m.parts[ce.DstPartition].g1Block
	}
	group := m.pl.Partitions[ce.SrcPartition].Way / 4
	gs, ok := m.g4[group]
	if !ok {
		gs = newGSwitch(d.GSwitch4.Rows, d.GSwitch4.Cols)
		m.g4[group] = gs
	}
	return gs, m.g4Signals, m.parts[ce.SrcPartition].g4Block, m.parts[ce.DstPartition].g4Block
}

// programCross allocates ports and programs the cross-points for one
// inter-partition edge: source STE → G-switch input; G-switch output wire
// → destination L-switch row; L-switch row → destination slot.
func (m *Machine) programCross(ce mapper.CrossEdge) error {
	gs, signals, srcBlock, dstBlock := m.gswitchFor(ce)

	srcKey := [2]int32{int32(ce.SrcPartition), int32(ce.SrcSlot)}
	sp, ok := gs.srcPort[srcKey]
	if !ok {
		idx := gs.nextSrc[int32(ce.SrcPartition)]
		if idx >= signals {
			return fmt.Errorf("gatesim: partition %d exceeds %d source signals", ce.SrcPartition, signals)
		}
		gs.nextSrc[int32(ce.SrcPartition)]++
		sp = srcBlock*signals + idx
		gs.srcPort[srcKey] = sp
	}
	dstKey := [3]int32{int32(ce.DstPartition), int32(ce.SrcPartition), int32(ce.SrcSlot)}
	wire, ok := gs.dstWire[dstKey]
	if !ok {
		idx := gs.nextDst[int32(ce.DstPartition)]
		if idx >= signals {
			return fmt.Errorf("gatesim: partition %d exceeds %d destination wires", ce.DstPartition, signals)
		}
		gs.nextDst[int32(ce.DstPartition)]++
		wire = idx
		gs.dstWire[dstKey] = wire
	}
	// G-switch: source port → destination port (the wire feeding the
	// destination partition's L-switch block).
	if err := gs.sw.SetCrossPoint(sp, dstBlock*signals+wire, true); err != nil {
		return err
	}
	// Destination L-switch: the G-input row activates the target slot.
	lrow := arch.PartitionSTEs + wire
	if ce.Via != mapper.ViaG1 {
		lrow = arch.PartitionSTEs + m.g1Signals + wire
	}
	return m.parts[ce.DstPartition].lswitch.SetCrossPoint(lrow, ce.DstSlot, true)
}

// Reset rewinds to offset 0.
func (m *Machine) Reset() {
	m.pos = 0
	for _, p := range m.parts {
		p.enabled.CopyFrom(p.always)
		p.enabled.OrWith(p.startOD)
	}
}

// Active returns what is powered in the cycle the next Step will run:
// the enabled states, and the partitions holding at least one — the two
// per-cycle counts the vector simulator sums for the energy model.
func (m *Machine) Active() (states, partitions int) {
	for _, p := range m.parts {
		if n := p.enabled.Count(); n > 0 {
			states += n
			partitions++
		}
	}
	return states, partitions
}

// Step processes one symbol at gate level and returns its matches.
func (m *Machine) Step(sym byte) []Match {
	var out []Match
	// Stage 1: state match in every partition's SRAM arrays.
	matched := make([]*bitvec.Vector, len(m.parts))
	for pi, p := range m.parts {
		mv, _ := p.arrays.MatchVector(sym, true)
		mv.AndWith(p.enabled)
		matched[pi] = mv
		if mv.Intersects(p.reports) {
			rep := mv.Clone()
			rep.AndWith(p.reports)
			rep.ForEach(func(slot int) {
				out = append(out, Match{Offset: m.pos, Code: p.code[slot], State: p.state[slot]})
			})
		}
	}
	// Stage 2: global switch propagation.
	g1out := map[int]*bitvec.Vector{}
	for way, gs := range m.g1 {
		g1out[way] = m.propagateGlobal(gs, matched)
	}
	g4out := map[int]*bitvec.Vector{}
	for group, gs := range m.g4 {
		g4out[group] = m.propagateGlobal(gs, matched)
	}
	// Stage 3: local switch propagation; writes the next active vectors.
	for pi, p := range m.parts {
		in := m.lin
		in.Reset()
		matched[pi].ForEach(func(slot int) { in.Set(slot) })
		way := m.pl.Partitions[pi].Way
		if gout := g1out[way]; gout != nil {
			base := p.g1Block * m.g1Signals
			for w := 0; w < m.g1Signals; w++ {
				if gout.Get(base + w) {
					in.Set(arch.PartitionSTEs + w)
				}
			}
		}
		if gout := g4out[way/4]; gout != nil {
			base := p.g4Block * m.g4Signals
			for w := 0; w < m.g4Signals; w++ {
				if gout.Get(base + w) {
					in.Set(arch.PartitionSTEs + m.g1Signals + w)
				}
			}
		}
		next, err := p.lswitch.Propagate(in)
		if err != nil {
			panic("gatesim: " + err.Error()) // sizes are fixed at build time
		}
		p.enabled.CopyFrom(next)
		p.enabled.OrWith(p.always)
	}
	m.pos++
	return out
}

// propagateGlobal drives a G-switch's input wires from the matched vectors
// of its source partitions and returns its output wires.
func (m *Machine) propagateGlobal(gs *gswitch, matched []*bitvec.Vector) *bitvec.Vector {
	in := bitvec.NewVector(gs.sw.Rows())
	for key, port := range gs.srcPort {
		if matched[key[0]].Get(int(key[1])) {
			in.Set(port)
		}
	}
	out, err := gs.sw.Propagate(in)
	if err != nil {
		panic("gatesim: " + err.Error())
	}
	return out
}

// Run processes a whole input.
func (m *Machine) Run(input []byte) []Match {
	var out []Match
	for _, b := range input {
		out = append(out, m.Step(b)...)
	}
	return out
}
