// Package arch models the Cache Automaton hardware: the Xeon-E5-style LLC
// slice geometry (paper Fig. 2), the SRAM state-match timing with and
// without sense-amplifier cycling (§2.6), the 8T crossbar switch parameters
// (Table 2), wire models (§4), the three-stage pipeline (§2.5, Table 3),
// and the derived frequency/energy/area/reachability figures (Tables 3–4,
// Figures 9–10).
//
// All constants are the ones the paper publishes; everything else is
// arithmetic over them, so the model regenerates the paper's component
// tables exactly and the system-level numbers to within rounding.
package arch

// Physical and geometric constants from the paper.
const (
	// SRAMCyclePS is the nominal SRAM array cycle (§5.1: arrays operate up
	// to 4 GHz; 256 ps cycle time).
	SRAMCyclePS = 256.0
	// PrechargeRWLPS is the parallel precharge + read-wordline portion of
	// an optimized read (§2.6, calibrated so the CA_P match takes the
	// paper's 438 ps: 188 + 2·125).
	PrechargeRWLPS = 188.0
	// SAEPulsePS is the sense-amp-enable/column-select pulse width: "a 125
	// ps (8 GHz) pulse can be generated for SAE and SEL" (§2.6).
	SAEPulsePS = 125.0
	// WireDelayPSPerMM is the global-metal wire delay (§4: 66 ps/mm).
	WireDelayPSPerMM = 66.0
	// HBusDelayPSPerMM is the slower in-slice H-Bus alternative (§5.5:
	// 300 ps/mm).
	HBusDelayPSPerMM = 300.0
	// WireEnergyPJPerMMPerBit is the global wire energy (§4: 0.07 pJ/mm/bit).
	WireEnergyPJPerMMPerBit = 0.07
	// ArrayAccessPJ is the energy of one 6T 256×256 sub-array access (§4:
	// 22 pJ).
	ArrayAccessPJ = 22.0

	// PartitionSTEs is the number of states per partition: 256 STEs in two
	// 4 KB SRAM arrays (§2.4).
	PartitionSTEs = 256
	// PartitionBytes is the SRAM footprint of one partition (two 4 KB
	// 256×128 arrays).
	PartitionBytes = 8 * 1024

	// WireToSwitchMMPerf is the array↔global-switch distance in the
	// performance design: "estimated to be 1.5mm assuming a slice dimension
	// of 3.19mm×3mm" (§5.1).
	WireToSwitchMMPerf = 1.5
	// WireToSwitchMMSpace is the longer distance in the space design
	// (across 4 ways; calibrated from Table 3: 468−327 = 141 ps ⇒ 2.13 mm).
	WireToSwitchMMSpace = 2.13
)

// SliceGeometry describes one last-level-cache slice (Fig. 2 (b), modeled
// after the Xeon E5).
type SliceGeometry struct {
	// SliceKB is the slice capacity (2560 KB = 2.5 MB).
	SliceKB int
	// Ways is the number of columns/ways per slice (20).
	Ways int
	// SubArraysPerWay is the number of 16 KB data sub-arrays per way (8).
	SubArraysPerWay int
	// SubArrayKB is the size of one data sub-array (16).
	SubArrayKB int
	// ColumnMuxWays is the column-multiplexing degree: bit-lines per sense
	// amp (8 for the modeled slice, §2.6/§5.1).
	ColumnMuxWays int
	// WidthMM × HeightMM are the slice dimensions (§5.1: 3.19 mm × 3 mm).
	WidthMM, HeightMM float64
}

// XeonE5Slice returns the geometry the paper models.
func XeonE5Slice() SliceGeometry {
	return SliceGeometry{
		SliceKB:         2560,
		Ways:            20,
		SubArraysPerWay: 8,
		SubArrayKB:      16,
		ColumnMuxWays:   8,
		WidthMM:         3.19,
		HeightMM:        3.0,
	}
}

// STEsPerWay returns how many STEs one way can hold: each 16 KB sub-array
// stores 512 STE columns (two 256-STE partitions).
func (s SliceGeometry) STEsPerWay() int {
	return s.SubArraysPerWay * (s.SubArrayKB * 1024 * 8 / 256)
}

// PartitionsPerWay returns partitions (256 STEs) per way.
func (s SliceGeometry) PartitionsPerWay() int { return s.STEsPerWay() / PartitionSTEs }

// SwitchParams describes one crossbar switch (Table 2).
type SwitchParams struct {
	// Rows and Cols are input and output wire counts.
	Rows, Cols int
	// DelayPS is the switch traversal delay.
	DelayPS float64
	// EnergyPJPerBit is the access energy per output bit.
	EnergyPJPerBit float64
	// AreaMM2 is the layout area of one switch.
	AreaMM2 float64
	// CountPer32K is how many such switches serve 32K STEs (the paper's
	// Table 2 "number of switches" granularity used for Fig. 10 areas).
	CountPer32K int
}

// DesignKind selects between the two evaluated designs.
type DesignKind int

const (
	// PerfOpt is CA_P: one connected component per partition, connectivity
	// within a way only, 2 GHz (§3.1).
	PerfOpt DesignKind = iota
	// SpaceOpt is CA_S: prefix-merged NFAs, G-switches across 4 ways,
	// 1.2 GHz (§3.1).
	SpaceOpt
)

func (k DesignKind) String() string {
	if k == PerfOpt {
		return "CA_P"
	}
	return "CA_S"
}

// Design bundles the architecture parameters of one Cache Automaton design
// point.
type Design struct {
	Kind DesignKind
	// LSwitch is the per-partition local switch (280×256).
	LSwitch SwitchParams
	// GSwitch1 is the within-way global switch.
	GSwitch1 SwitchParams
	// GSwitch4 is the across-4-ways global switch (space design only;
	// zero-valued for CA_P).
	GSwitch4 SwitchParams
	// WireToGSwitchMM is the array↔G-switch (and G-switch↔L-switch) wire
	// distance.
	WireToGSwitchMM float64
	// SenseGroups is how many column-mux groups must be sensed to read the
	// whole partition row (4 for CA_P, 8 for CA_S whose partitions span
	// the column-merged arrays).
	SenseGroups int
	// G1SignalsPerPartition and G4SignalsPerPartition are the interconnect
	// budget: how many STEs of a partition may drive inter-partition
	// transitions through each global switch (§2.4: 16 and 8).
	G1SignalsPerPartition, G4SignalsPerPartition int
	// PartitionsPerG1 is how many partitions share one G-Switch-1 (8 in
	// CA_P — one way's Array_L partitions; 16 in CA_S — a full way).
	PartitionsPerG1 int
	// PartitionsPerG4 is how many partitions share the G-Switch-4 (64 in
	// CA_S: 4 ways; 0 in CA_P).
	PartitionsPerG4 int
}

// NewDesign returns the published parameters for the given design (Table 2).
func NewDesign(kind DesignKind) *Design {
	switch kind {
	case PerfOpt:
		return &Design{
			Kind:                  PerfOpt,
			LSwitch:               SwitchParams{Rows: 280, Cols: 256, DelayPS: 163.5, EnergyPJPerBit: 0.191, AreaMM2: 0.033, CountPer32K: 128},
			GSwitch1:              SwitchParams{Rows: 128, Cols: 128, DelayPS: 128, EnergyPJPerBit: 0.16, AreaMM2: 0.011, CountPer32K: 8},
			WireToGSwitchMM:       WireToSwitchMMPerf,
			SenseGroups:           4,
			G1SignalsPerPartition: 16,
			G4SignalsPerPartition: 0,
			PartitionsPerG1:       8,
		}
	default:
		return &Design{
			Kind:                  SpaceOpt,
			LSwitch:               SwitchParams{Rows: 280, Cols: 256, DelayPS: 163.5, EnergyPJPerBit: 0.191, AreaMM2: 0.033, CountPer32K: 128},
			GSwitch1:              SwitchParams{Rows: 256, Cols: 256, DelayPS: 163, EnergyPJPerBit: 0.19, AreaMM2: 0.032, CountPer32K: 8},
			GSwitch4:              SwitchParams{Rows: 512, Cols: 512, DelayPS: 327, EnergyPJPerBit: 0.381, AreaMM2: 0.1293, CountPer32K: 1},
			WireToGSwitchMM:       WireToSwitchMMSpace,
			SenseGroups:           8,
			G1SignalsPerPartition: 16,
			G4SignalsPerPartition: 8,
			PartitionsPerG1:       16,
			PartitionsPerG4:       64,
		}
	}
}

// TimingOptions select the §5.5 ablations.
type TimingOptions struct {
	// NoSACycling disables the sense-amplifier cycling optimization
	// (Table 4 "w/o SA cycling").
	NoSACycling bool
	// HBus routes switch wiring over the slice's H-Bus instead of global
	// metal (Table 4 "with H-Bus").
	HBus bool
}

func (o TimingOptions) wirePSPerMM() float64 {
	if o.HBus {
		return HBusDelayPSPerMM
	}
	return WireDelayPSPerMM
}

// StateMatchPS returns the stage-1 delay: reading all column-multiplexed
// match bits of a partition (§2.6).
func (d *Design) StateMatchPS(o TimingOptions) float64 {
	if o.NoSACycling {
		// One full SRAM cycle per column-mux group.
		return float64(d.SenseGroups) * SRAMCyclePS
	}
	// Parallel precharge+RWL, then one SAE/SEL pulse per pair of groups
	// (the two 4 KB arrays of a partition sense concurrently).
	return PrechargeRWLPS + float64(d.SenseGroups)/2*SAEPulsePS
}

// GSwitchStagePS returns the stage-2 delay: wire to the global switch plus
// the (slowest) global switch traversal.
func (d *Design) GSwitchStagePS(o TimingOptions) float64 {
	sw := d.GSwitch1.DelayPS
	if d.GSwitch4.DelayPS > sw {
		sw = d.GSwitch4.DelayPS
	}
	return sw + d.WireToGSwitchMM*o.wirePSPerMM()
}

// LSwitchStagePS returns the stage-3 delay: wire from the global switch
// back to the local switch plus the local switch traversal.
func (d *Design) LSwitchStagePS(o TimingOptions) float64 {
	return d.LSwitch.DelayPS + d.WireToGSwitchMM*o.wirePSPerMM()
}

// ClockPeriodPS returns the pipeline clock period: the slowest of the three
// stages (§2.5).
func (d *Design) ClockPeriodPS(o TimingOptions) float64 {
	p := d.StateMatchPS(o)
	if g := d.GSwitchStagePS(o); g > p {
		p = g
	}
	if l := d.LSwitchStagePS(o); l > p {
		p = l
	}
	return p
}

// MaxFrequencyGHz returns 1/period.
func (d *Design) MaxFrequencyGHz(o TimingOptions) float64 {
	return 1000.0 / d.ClockPeriodPS(o)
}

// niceFrequencies is the grid of operating points designs are snapped to
// (the paper operates below the maximum: 2.3→2 GHz, 1.4→1.2 GHz, §5.1).
var niceFrequencies = []float64{4.0, 3.0, 2.5, 2.0, 1.5, 1.2, 1.0, 0.8, 0.5, 0.4, 0.25, 0.2, 0.133, 0.1, 0.05}

// OperatingFrequencyGHz snaps the maximum frequency down to the next nice
// grid point (with a 3% rounding grace matching the paper's reporting).
func (d *Design) OperatingFrequencyGHz(o TimingOptions) float64 {
	max := d.MaxFrequencyGHz(o) * 1.03
	for _, f := range niceFrequencies {
		if f <= max {
			return f
		}
	}
	return 0.05
}

// ThroughputGbps returns bits/s at the operating frequency: the pipeline
// retires one 8-bit symbol per cycle regardless of the NFA (§5.1: "the
// system has a deterministic throughput of one input symbol per cycle").
func (d *Design) ThroughputGbps(o TimingOptions) float64 {
	return d.OperatingFrequencyGHz(o) * 8
}

// AreaMM2For returns the switch-area overhead for a design supporting
// steCapacity states (Fig. 10 reports 32K STEs).
func (d *Design) AreaMM2For(steCapacity int) float64 {
	partitions := float64(steCapacity) / PartitionSTEs
	scale := float64(steCapacity) / (32 * 1024)
	area := partitions * d.LSwitch.AreaMM2
	area += float64(d.GSwitch1.CountPer32K) * scale * d.GSwitch1.AreaMM2
	if d.GSwitch4.CountPer32K > 0 {
		area += float64(d.GSwitch4.CountPer32K) * scale * d.GSwitch4.AreaMM2
	}
	return area
}

// Reachability returns the average number of states reachable in one
// transition from a state (Fig. 10's x-axis): every state reaches its full
// partition, the G1-connected states additionally reach the other
// partitions on their G-switch, and the G4-connected states the other
// partitions across ways.
func (d *Design) Reachability() float64 {
	r := float64(PartitionSTEs)
	if d.PartitionsPerG1 > 1 {
		g1Reach := float64((d.PartitionsPerG1 - 1) * PartitionSTEs)
		r += float64(d.G1SignalsPerPartition) / PartitionSTEs * g1Reach
	}
	if d.PartitionsPerG4 > 1 {
		g4Reach := float64((d.PartitionsPerG4 - d.PartitionsPerG1) * PartitionSTEs)
		r += float64(d.G4SignalsPerPartition) / PartitionSTEs * g4Reach
	}
	return r
}

// MaxFanIn returns the largest supported in-degree per state: a full
// partition's worth, vs 16 on the AP (§5.4).
func (d *Design) MaxFanIn() int { return PartitionSTEs }

// ActivityCounts is the per-symbol activity the energy model consumes,
// produced by the machine simulator (§5.3: energy depends on the number of
// active partitions and the dynamic transitions between partitions).
type ActivityCounts struct {
	// ActivePartitions is the number of partitions with ≥1 enabled state
	// (each costs an array access + local switch access; idle partitions
	// are clock/power gated, §5.3).
	ActivePartitions float64
	// G1Crossings is the number of active inter-partition transition wires
	// through G-Switch-1 this symbol.
	G1Crossings float64
	// G4Crossings is the same through G-Switch-4.
	G4Crossings float64
}

// SymbolEnergyPJ returns the modeled energy to process one input symbol
// with the given activity.
func (d *Design) SymbolEnergyPJ(a ActivityCounts) float64 {
	perPartition := ArrayAccessPJ + d.LSwitch.EnergyPJPerBit*float64(d.LSwitch.Cols)
	e := a.ActivePartitions * perPartition
	wire := d.WireToGSwitchMM * WireEnergyPJPerMMPerBit * 2 // to G-switch and back
	e += a.G1Crossings * (d.GSwitch1.EnergyPJPerBit*float64(d.GSwitch1.Cols) + wire)
	if d.GSwitch4.Cols > 0 {
		e += a.G4Crossings * (d.GSwitch4.EnergyPJPerBit*float64(d.GSwitch4.Cols) + wire)
	}
	return e
}

// PowerW returns average power for the given per-symbol activity at the
// operating frequency.
func (d *Design) PowerW(a ActivityCounts) float64 {
	return d.SymbolEnergyPJ(a) * 1e-12 * d.OperatingFrequencyGHz(TimingOptions{}) * 1e9
}

// MaxPowerW returns the architectural peak power for a configuration
// holding steCapacity states: every partition active every cycle (§5.3
// discusses a 128K-STE prototype in 8 ways of a slice).
func (d *Design) MaxPowerW(steCapacity int) float64 {
	parts := float64(steCapacity) / PartitionSTEs
	return d.PowerW(ActivityCounts{ActivePartitions: parts})
}

// IdealAPSymbolEnergyPJ models the "Ideal AP" comparison point of §5.3: a
// DRAM row activation of 256 bits at 1 pJ/bit per active partition, zero
// interconnect energy.
func IdealAPSymbolEnergyPJ(activePartitions float64) float64 {
	return activePartitions * 256.0 * 1.0
}

// UtilizationMB converts a partition count to cache footprint in MB
// (Fig. 8's y-axis).
func UtilizationMB(partitions int) float64 {
	return float64(partitions) * PartitionBytes / (1024 * 1024)
}

// CeilDiv is integer ceiling division (used throughout capacity math).
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("arch: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// ConfigurationTimeMS models the §2.10 initialization cost: STE binary
// pages are loaded into the cache arrays by CPU stores and the switches
// are programmed in write mode. The paper measured ≈0.2 ms for its largest
// benchmark (≈400 partitions / 3 MB of STE data) on a Xeon workstation —
// i.e. ≈16 GB/s of effective configuration bandwidth — versus tens of
// milliseconds for the AP.
func ConfigurationTimeMS(partitions int) float64 {
	const configGBps = 16.0
	// STE data (8 KB/partition) + switch enable bits (280×256 bits local
	// + global share ≈ 9 KB/partition).
	bytes := float64(partitions) * (PartitionBytes + 9*1024)
	return bytes / (configGBps * 1e9) * 1e3
}

// ConfigurationImageBytes sizes the §2.10 configuration image of a
// placement: a 56-byte header, then per partition its way, each slot's
// 32-byte STE column with a flags byte and a 4-byte report code, and
// each slot's 32-byte local-switch row (STE pages and switch rows
// dominate: 8 KB each per partition), then 20 bytes per cross edge
// (source and destination partition and slot, and the switch it takes).
func ConfigurationImageBytes(partitions, crossEdges int) int64 {
	perPartition := int64(8) + // way
		int64(PartitionSTEs)*(32+1+4) + // STE pages + flags + code
		int64(PartitionSTEs)*32 // local switch rows
	return 8 + 6*8 + int64(partitions)*perPartition + int64(crossEdges)*20
}

// CapacitySTEs returns how many STEs fit when the automaton may use
// nfaWays ways of each of nSlices slices — the §1 capacity comparison:
// "Typical high-performance processors can have 20-40MB of last level
// cache and can accommodate 640K-1280K states, if the entire cache is
// utilized to save NFAs."
func (s SliceGeometry) CapacitySTEs(nSlices, nfaWays int) int {
	if nfaWays > s.Ways {
		nfaWays = s.Ways
	}
	return nSlices * nfaWays * s.STEsPerWay() / 2 * 2 // whole partitions only
}
