package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HistogramVec is a family of Histograms sharing one name and bucket
// layout, partitioned by a single label (stage, ruleset, …). It renders
// in the Prometheus exposition as name_bucket{label="value",le="…"}
// series under one # TYPE header, so dashboards aggregate and slice the
// family without per-series registration.
//
// Label values are often client-controlled (rule set names), so the vec
// bounds its cardinality: once maxSeries distinct values exist, further
// values collapse into the "other" series instead of growing the
// registry without bound.
type HistogramVec struct {
	label     string
	bounds    []float64
	help      string
	maxSeries int

	mu     sync.RWMutex
	series map[string]*Histogram
}

// DefaultVecSeries bounds a HistogramVec's distinct label values.
const DefaultVecSeries = 64

// overflowSeries absorbs label values beyond the cardinality bound.
const overflowSeries = "other"

// HistogramVec returns the histogram family registered under name,
// creating it with the given label name and bucket bounds if new.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	v := &HistogramVec{
		label:     label,
		bounds:    bs,
		help:      help,
		maxSeries: DefaultVecSeries,
		series:    make(map[string]*Histogram),
	}
	return r.register(name, v).(*HistogramVec)
}

// With returns the histogram for one label value, creating it on first
// use. Values beyond the cardinality bound share the "other" series.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.series[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.series[value]; ok {
		return h
	}
	if len(v.series) >= v.maxSeries && value != overflowSeries {
		if h, ok := v.series[overflowSeries]; ok {
			return h
		}
		value = overflowSeries
	}
	h = &Histogram{bounds: v.bounds, counts: make([]atomic.Int64, len(v.bounds)+1), help: v.help}
	v.series[value] = h
	return h
}

// Labels returns the live label values, sorted.
func (v *HistogramVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.series))
	for k := range v.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// labelEscaper escapes a label value for the text exposition format,
// which knows exactly three escapes: \\, \" and \n. Every other byte,
// control characters included, is written as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (v *HistogramVec) kind() string     { return "histogram" }
func (v *HistogramVec) helpText() string { return v.help }

func (v *HistogramVec) writeProm(w io.Writer, name string) error {
	for _, value := range v.Labels() {
		v.mu.RLock()
		h := v.series[value]
		v.mu.RUnlock()
		// A label value must be valid UTF-8; invalid bytes render as U+FFFD.
		lbl := v.label + `="` + labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")) + `"`
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, lbl, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, lbl, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s} %s\n", name, lbl, formatFloat(h.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n", name, lbl, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

func (v *HistogramVec) jsonValue() any {
	out := make(map[string]any)
	for _, value := range v.Labels() {
		v.mu.RLock()
		h := v.series[value]
		v.mu.RUnlock()
		out[value] = h.jsonValue()
	}
	return out
}
