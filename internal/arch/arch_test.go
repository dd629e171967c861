package arch

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f (±%.3f)", name, got, want, tol)
	}
}

func TestSliceGeometry(t *testing.T) {
	s := XeonE5Slice()
	if got := s.STEsPerWay(); got != 4096 {
		t.Errorf("STEsPerWay = %d, want 4096 (8 sub-arrays × 512 STEs)", got)
	}
	if got := s.PartitionsPerWay(); got != 16 {
		t.Errorf("PartitionsPerWay = %d, want 16", got)
	}
	// Sanity: 20 ways × 8 × 16KB = 2.5MB of data arrays.
	if got := s.Ways * s.SubArraysPerWay * s.SubArrayKB; got != 2560 {
		t.Errorf("slice data = %dKB, want 2560", got)
	}
}

// TestTable3PipelineDelays reproduces paper Table 3 exactly.
func TestTable3PipelineDelays(t *testing.T) {
	var o TimingOptions
	p := NewDesign(PerfOpt)
	approx(t, "CA_P state-match", p.StateMatchPS(o), 438, 1)
	approx(t, "CA_P G-switch", p.GSwitchStagePS(o), 227, 1)
	approx(t, "CA_P L-switch", p.LSwitchStagePS(o), 263, 1)
	approx(t, "CA_P max freq", p.MaxFrequencyGHz(o), 2.3, 0.05)
	approx(t, "CA_P operating freq", p.OperatingFrequencyGHz(o), 2.0, 0.001)

	s := NewDesign(SpaceOpt)
	approx(t, "CA_S state-match", s.StateMatchPS(o), 687, 2)
	approx(t, "CA_S G-switch", s.GSwitchStagePS(o), 468, 2)
	approx(t, "CA_S L-switch", s.LSwitchStagePS(o), 304, 2)
	approx(t, "CA_S max freq", s.MaxFrequencyGHz(o), 1.4, 0.06)
	approx(t, "CA_S operating freq", s.OperatingFrequencyGHz(o), 1.2, 0.001)
}

// TestTable4Ablations reproduces paper Table 4: achieved frequency without
// sense-amp cycling and with H-Bus wiring.
func TestTable4Ablations(t *testing.T) {
	p := NewDesign(PerfOpt)
	s := NewDesign(SpaceOpt)
	approx(t, "CA_P w/o SA cycling", p.OperatingFrequencyGHz(TimingOptions{NoSACycling: true}), 1.0, 0.001)
	approx(t, "CA_S w/o SA cycling", s.OperatingFrequencyGHz(TimingOptions{NoSACycling: true}), 0.5, 0.001)
	approx(t, "CA_P with H-Bus", p.OperatingFrequencyGHz(TimingOptions{HBus: true}), 1.5, 0.001)
	approx(t, "CA_S with H-Bus", s.OperatingFrequencyGHz(TimingOptions{HBus: true}), 1.0, 0.001)
	// Without SA cycling the match is whole SRAM cycles per mux group.
	approx(t, "CA_P no-cycling match", p.StateMatchPS(TimingOptions{NoSACycling: true}), 1024, 0.5)
	approx(t, "CA_S no-cycling match", s.StateMatchPS(TimingOptions{NoSACycling: true}), 2048, 0.5)
}

// TestFigure10AreaAndReachability reproduces the Fig. 10 design points.
func TestFigure10AreaAndReachability(t *testing.T) {
	p := NewDesign(PerfOpt)
	s := NewDesign(SpaceOpt)
	approx(t, "CA_P area @32K", p.AreaMM2For(32*1024), 4.3, 0.15)
	approx(t, "CA_S area @32K", s.AreaMM2For(32*1024), 4.6, 0.15)
	// Paper: CA_P reachability 361, CA_S 936. The analytical topology model
	// lands within ~8%.
	approx(t, "CA_P reachability", p.Reachability(), 361, 30)
	approx(t, "CA_S reachability", s.Reachability(), 936, 75)
	if p.MaxFanIn() != 256 {
		t.Errorf("MaxFanIn = %d, want 256", p.MaxFanIn())
	}
}

func TestThroughput(t *testing.T) {
	var o TimingOptions
	approx(t, "CA_P Gbps", NewDesign(PerfOpt).ThroughputGbps(o), 16, 0.001)
	approx(t, "CA_S Gbps", NewDesign(SpaceOpt).ThroughputGbps(o), 9.6, 0.001)
}

func TestSymbolEnergyModel(t *testing.T) {
	p := NewDesign(PerfOpt)
	// One active partition: array access + local switch.
	one := p.SymbolEnergyPJ(ActivityCounts{ActivePartitions: 1})
	approx(t, "per-partition energy", one, 22+0.191*256, 0.01)
	// Scaling is linear in active partitions.
	ten := p.SymbolEnergyPJ(ActivityCounts{ActivePartitions: 10})
	approx(t, "10-partition energy", ten, one*10, 0.01)
	// Ideal AP with the same activity costs ~3.6× more (paper: ~3×).
	ap := IdealAPSymbolEnergyPJ(10)
	ratio := ap / ten
	if ratio < 2.5 || ratio > 4.5 {
		t.Errorf("Ideal-AP/CA energy ratio = %.2f, want ≈3× (paper §5.3)", ratio)
	}
	// Crossings add energy.
	withG := p.SymbolEnergyPJ(ActivityCounts{ActivePartitions: 10, G1Crossings: 5})
	if withG <= ten {
		t.Error("G-switch crossings should add energy")
	}
}

func TestMaxPower(t *testing.T) {
	// §5.3: a 128K-STE CA_P prototype "can consume a maximum power of 75W";
	// CA_P max 71.3W.
	p := NewDesign(PerfOpt).MaxPowerW(128 * 1024)
	if p < 60 || p > 85 {
		t.Errorf("CA_P max power = %.1fW, want ≈71-75W", p)
	}
	s := NewDesign(SpaceOpt).MaxPowerW(128 * 1024)
	if s >= p {
		t.Errorf("CA_S max power %.1fW should be below CA_P %.1fW (lower frequency)", s, p)
	}
}

func TestUtilizationMB(t *testing.T) {
	// 128 partitions × 8KB = 1MB.
	approx(t, "128 partitions", UtilizationMB(128), 1.0, 1e-9)
	approx(t, "0 partitions", UtilizationMB(0), 0, 1e-9)
}

func TestCeilDiv(t *testing.T) {
	cases := [][3]int{{0, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {256, 256, 1}, {257, 256, 2}}
	for _, c := range cases {
		if got := CeilDiv(c[0], c[1]); got != c[2] {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv by zero should panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestDesignKindString(t *testing.T) {
	if PerfOpt.String() != "CA_P" || SpaceOpt.String() != "CA_S" {
		t.Error("DesignKind strings wrong")
	}
}

func TestPipelinePeriodIsSlowestStage(t *testing.T) {
	for _, k := range []DesignKind{PerfOpt, SpaceOpt} {
		d := NewDesign(k)
		for _, o := range []TimingOptions{{}, {NoSACycling: true}, {HBus: true}, {NoSACycling: true, HBus: true}} {
			period := d.ClockPeriodPS(o)
			for name, st := range map[string]float64{
				"match": d.StateMatchPS(o), "g": d.GSwitchStagePS(o), "l": d.LSwitchStagePS(o),
			} {
				if st > period {
					t.Errorf("%v %+v: stage %s (%.0fps) exceeds period %.0fps", k, o, name, st, period)
				}
			}
		}
	}
}

func TestConfigurationTime(t *testing.T) {
	// ≈400 partitions (the largest benchmark) configures in ≈0.2ms (§2.10);
	// far below the AP's tens of milliseconds.
	got := ConfigurationTimeMS(400)
	approx(t, "config time", got, 0.2, 0.35)
	if ConfigurationTimeMS(0) != 0 {
		t.Error("zero partitions should take zero time")
	}
	if ConfigurationTimeMS(800) <= got {
		t.Error("config time should grow with partitions")
	}
}

// imageSizes pins the §2.10 image size for (partitions, cross edges)
// pairs: an empty placement, scan-sparse's rule set (1, 0), Snort at
// scale 0.1 under CA_P (27, 0) and CA_S (20, 69), compile-cold's 2000
// rules (231, 0), and two shapes with more crossings.
var imageSizes = []struct {
	partitions, crossEdges int
	bytes                  int64
}{
	{0, 0, 56},
	{1, 0, 17_728},
	{2, 3, 35_460},
	{20, 69, 354_876},
	{27, 0, 477_200},
	{231, 0, 4_082_288},
	{400, 1000, 7_088_856},
}

func TestImageSizePinned(t *testing.T) {
	for _, c := range imageSizes {
		if got := ConfigurationImageBytes(c.partitions, c.crossEdges); got != c.bytes {
			t.Errorf("%d partitions, %d cross edges: %d bytes, want %d", c.partitions, c.crossEdges, got, c.bytes)
		}
	}
}

func TestImageSizeTracksPartitions(t *testing.T) {
	if ConfigurationImageBytes(5, 0) <= ConfigurationImageBytes(1, 0) {
		t.Error("bigger placements should have bigger images")
	}
	if ConfigurationImageBytes(5, 10) <= ConfigurationImageBytes(5, 0) {
		t.Error("cross edges should add to the image")
	}
}

func TestCapacityClaims(t *testing.T) {
	s := XeonE5Slice()
	// §1: a 20MB LLC (8 slices) fully used holds 640K states...
	if got := s.CapacitySTEs(8, 20); got != 640*1024 {
		t.Errorf("8-slice full capacity = %d, want 640K", got)
	}
	// ...and a 40MB LLC (16 slices) holds 1280K.
	if got := s.CapacitySTEs(16, 20); got != 1280*1024 {
		t.Errorf("16-slice full capacity = %d, want 1280K", got)
	}
	// §5.3's prototype: 8 ways of each of 8 slices → 128K STEs... the
	// paper says 8 ways of "a cache slice"; 8 ways × 4096 STEs × 8 slices
	// would be 256K, so the 128K figure corresponds to the A[16]=0 half
	// (CA_P) — 8 ways of 8 slices at half density.
	if got := s.CapacitySTEs(8, 8) / 2; got != 128*1024 {
		t.Errorf("prototype capacity = %d, want 128K", got)
	}
	// Way clamp.
	if s.CapacitySTEs(1, 99) != s.CapacitySTEs(1, 20) {
		t.Error("ways should clamp to the slice's way count")
	}
}
