// Package telemetry is the observability layer of the Cache Automaton
// stack: a concurrency-safe metrics registry (counters, gauges and
// fixed-bucket histograms, all built on sync/atomic), span-style tracing
// for the compile pipeline, a near-zero-cost machine run collector, and an
// HTTP exposition endpoint serving Prometheus text, expvar JSON and pprof.
//
// The package is stdlib-only by design: the paper derives its energy and
// activity figures from "per-cycle statistics on number of active states
// in each array" (§4), and this layer makes those signals first-class and
// exportable without pulling a metrics dependency into the module.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Int64
	help string
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v    atomic.Int64
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 value (rates, seconds).
type FloatGauge struct {
	bits atomic.Uint64
	help string
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *FloatGauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; observations above the last bound land in the
// implicit +Inf bucket. All updates are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    FloatGauge     // float64 bits under CAS: sub-millisecond observations add exactly
	count  atomic.Int64
	help   string
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveInt records one integral observation.
func (h *Histogram) ObserveInt(v int64) { h.Observe(float64(v)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// ExpBuckets returns bounds start, start*factor, … (n bounds) for
// activity-style histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is the registry's view of one instrument.
type metric interface {
	kind() string
	helpText() string
	writeProm(w io.Writer, name string) error
	jsonValue() any
}

func (c *Counter) kind() string     { return "counter" }
func (c *Counter) helpText() string { return c.help }
func (c *Counter) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}
func (c *Counter) jsonValue() any { return c.Value() }

func (g *Gauge) kind() string     { return "gauge" }
func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, g.Value())
	return err
}
func (g *Gauge) jsonValue() any { return g.Value() }

func (g *FloatGauge) kind() string     { return "gauge" }
func (g *FloatGauge) helpText() string { return g.help }
func (g *FloatGauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
	return err
}
func (g *FloatGauge) jsonValue() any { return g.Value() }

func (h *Histogram) kind() string     { return "histogram" }
func (h *Histogram) helpText() string { return h.help }
func (h *Histogram) writeProm(w io.Writer, name string) error {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

func (h *Histogram) jsonValue() any {
	buckets := make(map[string]int64, len(h.bounds)+1)
	for i, b := range h.bounds {
		buckets[formatFloat(b)] = h.counts[i].Load()
	}
	buckets["+Inf"] = h.counts[len(h.bounds)].Load()
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Registry holds named instruments. Instrument constructors are
// get-or-create, so independent components can share metrics by name.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]metric)} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register returns the existing metric under name (checking its type) or
// installs fresh. A name registered under a different instrument type is a
// programming error and panics.
func (r *Registry) register(name string, fresh metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if fmt.Sprintf("%T", m) != fmt.Sprintf("%T", fresh) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %T (was %T)", name, fresh, m))
		}
		return m
	}
	r.metrics[name] = fresh
	return fresh
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{help: help}).(*Counter)
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{help: help}).(*Gauge)
}

// FloatGauge returns the float gauge registered under name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.register(name, &FloatGauge{help: help}).(*FloatGauge)
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if new (bounds are sorted defensively).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1), help: help}
	return r.register(name, h).(*Histogram)
}

// names returns the registered metric names, sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) get(name string) metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics[name]
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, name := range r.names() {
		m := r.get(name)
		if m == nil {
			continue
		}
		if help := m.helpText(); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.kind()); err != nil {
			return err
		}
		if err := m.writeProm(w, name); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry as one JSON object, name → value
// (histograms become {count, sum, buckets}).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.jsonSnapshot())
}

// jsonSnapshot maps every registered metric's name to its JSON value —
// the one body behind WriteJSON and the expvar export.
func (r *Registry) jsonSnapshot() map[string]any {
	obj := make(map[string]any)
	for _, name := range r.names() {
		if m := r.get(name); m != nil {
			obj[name] = m.jsonValue()
		}
	}
	return obj
}

// PublishExpvar publishes the registry under the given expvar name (a
// JSON snapshot recomputed on every /debug/vars read). Publishing the same
// name twice is a no-op, so multiple Serve calls are safe.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.jsonSnapshot() }))
}
