package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of one (workload, metric) row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges B against A for one end-to-end metric. The change is
// measured as a share of A's value, in the metric's own direction.
// Where either side's spread (its split-half distance, see stat) is
// wider than the bound the values cannot settle it: the row is
// unresolved unless one side's whole split-half range beats the
// other's. A change below the metric's absolute floor is never a
// regression.
func verdict(m *metric, a, b stat) string {
	if a.Value == 0 {
		if b.Value == 0 {
			return same
		}
		return unresolved
	}
	sign := 1.0 // positive change = worse
	if m.better == "higher" {
		sign = -1
	}
	change := sign * (b.Value - a.Value) / math.Abs(a.Value)
	if math.Abs(b.Value-a.Value) <= m.floor {
		return same
	}
	if a.spread() > m.bound || b.spread() > m.bound {
		loA, hiA, loB, hiB := a.Lo, a.Hi, b.Lo, b.Hi
		if m.better == "higher" { // flip so that larger is worse on both
			loA, hiA, loB, hiB = -hiA, -loA, -hiB, -loB
		}
		switch {
		case loB > hiA:
			return worse
		case hiB < loA:
			return better
		}
		return unresolved
	}
	switch {
	case change > m.bound:
		return worse
	case change < -m.bound:
		return better
	}
	return same
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareFiles prints one row per (workload, metric) present in both
// files — both values, both spreads, the ratio B/A, the verdict — and
// returns 1 if any end-to-end row is worse, any fail_ratio rose, or any
// simulated quantity differs at all.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readLedger(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readLedger(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s  %s (%s, %d cpu, %s, commit %s)\n", pathA, a.Host.Hostname, a.Host.CPU, a.Host.NumCPU, a.Host.GoVersion, a.Host.Commit)
	fmt.Fprintf(stdout, "B: %s  %s (%s, %d cpu, %s, commit %s)\n", pathB, b.Host.Hostname, b.Host.CPU, b.Host.NumCPU, b.Host.GoVersion, b.Host.Commit)
	if a.Host.Hostname != b.Host.Hostname || a.Host.CPU != b.Host.CPU || a.Host.NumCPU != b.Host.NumCPU {
		fmt.Fprintln(stdout, "warning: the two results come from different hosts; host-time rows are not comparable")
	}
	fmt.Fprintf(stdout, "%-15s %-36s %14s %10s %14s %10s %-8s %12s  %s\n", "workload", "metric", "A value", "A spread", "B value", "B spread", "unit", "B/A", "verdict")

	counts := map[string]int{}
	bad := 0
	row := func(workload string, m *metric, sa, sb stat, v string) {
		ratio := "n/a"
		if sa.Value != 0 {
			ratio = fmt.Sprintf("%.4f of A", sb.Value/sa.Value)
		}
		fmt.Fprintf(stdout, "%-15s %-36s %14.6g %10.4f %14.6g %10.4f %-8s %12s  %s\n", workload, m.name, sa.Value, sa.spread(), sb.Value, sb.spread(), m.unit, ratio, v)
		counts[v]++
	}
	layerRows := func(workload string, la, lb map[string]stat) {
		for i := range perLayer {
			m := &perLayer[i]
			sa, okA := la[m.name]
			sb, okB := lb[m.name]
			if !okA || !okB {
				continue
			}
			v := "-" // per-layer rows explain, they do not gate
			if strings.HasPrefix(m.name, "machine.sim_") {
				v = same
				if sa.Value != sb.Value {
					v = worse
					bad++
				}
			}
			row(workload, m, sa, sb, v)
		}
	}
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for i := range endToEnd {
			m := &endToEnd[i]
			sa, okA := wa.EndToEnd[m.name]
			sb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			if v == worse {
				bad++
			}
			row(wa.Name, m, sa, sb, v)
		}
		// fail_ratio: any increase is a regression.
		v := same
		if wb.FailRatio > wa.FailRatio {
			v = worse
			bad++
		}
		row(wa.Name, &metric{name: "fail_ratio", unit: "ratio"}, constStat("ratio", wa.FailRatio), constStat("ratio", wb.FailRatio), v)
		layerRows(wa.Name, wa.PerLayer, wb.PerLayer)
	}
	layerRows("layers", a.Layers, b.Layers)
	fmt.Fprintf(stdout, "verdicts: %d better, %d same, %d worse, %d unresolved\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if bad > 0 {
		return 1
	}
	return 0
}
