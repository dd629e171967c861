package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Errorf("SetMax(9) = %d", g.Value())
	}
	f := r.FloatGauge("f", "help f")
	f.Set(1.5)
	f.Add(1.25)
	if got := f.Value(); got != 2.75 {
		t.Errorf("float gauge = %v, want 2.75", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "")
	b := r.Counter("same", "")
	if a != b {
		t.Error("same-name counters should be the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as a gauge should panic")
		}
	}()
	r.Gauge("same", "")
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 105.5 {
		t.Errorf("sum = %v, want 105.5", h.Sum())
	}
	if got, want := h.Mean(), 105.5/5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 2`,    // 0 and 1
		`h_bucket{le="2"} 3`,    // + 1.5
		`h_bucket{le="4"} 4`,    // + 3
		`h_bucket{le="+Inf"} 5`, // + 100
		"h_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramSubMillisecondSum is the regression test for the sum that
// was kept as int64(v*1000): every observation under 1 ms added zero, so
// _sum and Mean() of the *_seconds histograms read 0 in a system whose
// typical request takes a fraction of a millisecond.
func TestHistogramSubMillisecondSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.001, 0.01})
	for i := 0; i < 1000; i++ {
		h.Observe(0.0003)
	}
	if got := h.Sum(); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("Sum() = %v, want 0.3", got)
	}
	if got := h.Mean(); math.Abs(got-0.0003) > 1e-12 {
		t.Fatalf("Mean() = %v, want 0.0003", got)
	}
	var prom, js bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var promSum float64
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "lat_seconds_sum "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparseable _sum line %q: %v", line, err)
			}
			promSum = v
		}
	}
	var obj map[string]map[string]any
	if err := json.Unmarshal(js.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	jsonSum, _ := obj["lat_seconds"]["sum"].(float64)
	if math.Abs(promSum-0.3) > 1e-9 || math.Abs(jsonSum-0.3) > 1e-9 {
		t.Fatalf("exposed sums: prometheus %v, JSON %v, want 0.3 from both", promSum, jsonSum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees").Add(2)
	r.Gauge("a", "the a gauge").Set(-3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Sorted by name, HELP before TYPE before the sample.
	if !strings.Contains(out, "# HELP a the a gauge\n# TYPE a gauge\na -3\n") {
		t.Errorf("gauge exposition malformed:\n%s", out)
	}
	if strings.Index(out, "\na -3") > strings.Index(out, "\nb_total 2") {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if obj["c_total"].(float64) != 3 {
		t.Errorf("c_total = %v", obj["c_total"])
	}
	h := obj["h"].(map[string]any)
	if h["count"].(float64) != 1 {
		t.Errorf("h.count = %v", h["count"])
	}
}

// TestConcurrentInstruments exercises counters, gauges and histograms from
// many writers while readers render expositions — the -race target of the
// acceptance criteria.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total", "")
			g := r.Gauge("g", "")
			f := r.FloatGauge("f", "")
			h := r.Histogram("h", "", []float64{1, 10, 100})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.SetMax(int64(w*perWriter + i))
				f.Add(0.5)
				h.ObserveInt(int64(i % 200))
			}
		}(w)
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
				_ = r.WriteJSON(&buf)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("h", "", nil).Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := r.FloatGauge("f", "").Value(); got != writers*perWriter*0.5 {
		t.Errorf("float gauge = %v, want %v", got, writers*perWriter*0.5)
	}
	if got := r.Gauge("g", "").Value(); got != writers*perWriter-1 {
		t.Errorf("gauge high-water = %d, want %d", got, writers*perWriter-1)
	}
}
