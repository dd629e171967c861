package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHistogramVecWith(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("ca_stage_seconds", "by stage", "stage", []float64{0.01, 0.1, 1})
	a := v.With("queue")
	if v.With("queue") != a {
		t.Fatal("With must return the same histogram for one label value")
	}
	a.Observe(0.05)
	a.Observe(0.5)
	if a.Count() != 2 {
		t.Fatalf("count = %d, want 2", a.Count())
	}
	v.With("run").ObserveInt(2)
	got := v.Labels()
	if strings.Join(got, ",") != "queue,run" {
		t.Fatalf("Labels = %v", got)
	}
}

func TestHistogramVecCardinalityBound(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("ca_ruleset_seconds", "by ruleset", "ruleset", []float64{1})
	v.maxSeries = 2
	v.With("a").Observe(1)
	v.With("b").Observe(1)
	over1 := v.With("hostile-1")
	over2 := v.With("hostile-2")
	if over1 != over2 {
		t.Fatal("overflow values must share one series")
	}
	if over1 != v.With(overflowSeries) {
		t.Fatal("overflow series must be addressable as \"other\"")
	}
	over1.Observe(1)
	got := v.Labels()
	if strings.Join(got, ",") != "a,b,other" {
		t.Fatalf("Labels = %v, want bounded set with overflow", got)
	}
}

func TestHistogramVecWriteProm(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("ca_stage_seconds", "serving latency by stage", "stage", []float64{0.1, 1})
	v.With("queue").Observe(0.05)
	v.With("queue").Observe(0.5)
	v.With(`we"ird`).Observe(2)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ca_stage_seconds histogram",
		`ca_stage_seconds_bucket{stage="queue",le="0.1"} 1`,
		`ca_stage_seconds_bucket{stage="queue",le="1"} 2`,
		`ca_stage_seconds_bucket{stage="queue",le="+Inf"} 2`,
		`ca_stage_seconds_sum{stage="queue"} 0.55`,
		`ca_stage_seconds_count{stage="queue"} 2`,
		`ca_stage_seconds_bucket{stage="we\"ird",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ca_stage_seconds") != 1 {
		t.Fatal("vec must render one TYPE header for the whole family")
	}
}

// TestHistogramVecLabelEscaping holds label values to the text format's
// rules: only backslash, double quote and line feed are escaped, and
// invalid UTF-8 becomes U+FFFD. Any other escape makes Prometheus reject
// the whole scrape, so one odd rule-set name would hide every metric.
func TestHistogramVecLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"pets", `pets`},
		{`we"ird`, `we\"ird`},
		{`back\slash`, `back\\slash`},
		{"two\nlines", `two\nlines`},
		{"a\x01b\rc", "a\x01b\rc"},
		{"tab\there", "tab\there"},
		{"caf\u00e9", "caf\u00e9"},
		{"bad\xffutf8", "bad\uFFFDutf8"},
	} {
		reg := NewRegistry()
		reg.HistogramVec("ca_ruleset_seconds", "", "ruleset", []float64{1}).With(tc.value).Observe(0.5)
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		want := `ca_ruleset_seconds_count{ruleset="` + tc.want + `"} 1` + "\n"
		if !strings.Contains(b.String(), want) {
			t.Errorf("value %q: exposition lacks %q:\n%s", tc.value, want, b.String())
		}
	}
}

func TestHistogramVecJSON(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("ca_stage_seconds", "", "stage", []float64{1})
	v.With("wal").Observe(0.5)
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]map[string]struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(b.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["ca_stage_seconds"]["wal"].Count != 1 {
		t.Fatalf("json = %s", b.String())
	}
}

func TestHistogramVecGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	v1 := reg.HistogramVec("ca_stage_seconds", "", "stage", []float64{1})
	v2 := reg.HistogramVec("ca_stage_seconds", "", "stage", []float64{1})
	if v1 != v2 {
		t.Fatal("same name must return the same vec")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a vec name as a counter must panic")
		}
	}()
	reg.Counter("ca_stage_seconds", "")
}

// TestHistogramVecConcurrent exercises first-use series creation racing
// with observation and rendering under -race.
func TestHistogramVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("ca_stage_seconds", "", "stage", []float64{0.1, 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.With(fmt.Sprintf("s%d", i%10)).Observe(float64(i) / 100)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			_ = reg.WritePrometheus(&b)
			v.Labels()
		}
	}()
	wg.Wait()
	var total int64
	for _, l := range v.Labels() {
		total += v.With(l).Count()
	}
	if total != 8*200 {
		t.Fatalf("observations lost: %d, want %d", total, 8*200)
	}
}
