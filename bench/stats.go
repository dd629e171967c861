package main

import (
	"sort"
	"time"
)

// stat is one reported metric.
//
// Value is the metric's quiet value: the best of its samples (the
// fastest round's time, the busiest round's throughput). The reference
// host is a shared VM on which any memory-bound loop runs at one of a
// few discrete speeds — 1×, 1.9× or 3.4× slower — for a few hundred
// milliseconds at a time, whatever the process does, and in some
// stretches of tens of seconds is hardly ever at 1× (README.md shows the
// trace). A mean, a median or even a low percentile over rounds then
// measures how busy the neighbours were; only the fast edge of the
// distribution measures the program. Six runs a few minutes apart put
// the median over rounds 20–50% apart and the best round 4–10%.
//
// (One metric is reported otherwise. A wire round's p99 is its third or
// fourth slowest request, and the best of five hundred such is the round
// the collector skipped: it moves by a fifth from run to run. req_p99_us
// sets the best twentieth of the rounds aside — metric.trim — and is the
// best of the rest, which over the same runs moved by a twelfth.)
//
// Lo and Hi are the quiet values of the even- and the odd-numbered
// samples taken alone. Their distance says how well the fast edge is
// defined: it is the spread printed beside the metric and the
// uncertainty -compare weighs a difference against.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Samples []float64 `json:"samples,omitempty"`
}

// spread is the split-half distance as a share of the value.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	sp := (s.Hi - s.Lo) / s.Value
	if sp < 0 {
		sp = -sp
	}
	return sp
}

// newStat reports the quiet value of samples.
func newStat(m *metric, samples []float64) stat {
	higher := m.better == "higher"
	s := stat{Value: quietAfter(samples, higher, m.trim), Unit: m.unit, N: len(samples), Samples: samples}
	var halves [2][]float64
	for i, v := range samples {
		halves[i%2] = append(halves[i%2], v)
	}
	s.Lo, s.Hi = s.Value, s.Value
	if len(halves[1]) > 0 {
		s.Lo, s.Hi = ordered(quietAfter(halves[0], higher, m.trim), quietAfter(halves[1], higher, m.trim))
	}
	return s
}

func ordered(a, b float64) (lo, hi float64) {
	if a > b {
		return b, a
	}
	return a, b
}

// constStat reports a value that is counted or derived, not sampled.
func constStat(unit string, v float64) stat {
	return stat{Value: v, Unit: unit, N: 1, Lo: v, Hi: v}
}

// quiet is the best of samples: the largest when higher is better, the
// smallest otherwise.
func quiet(samples []float64, higherIsBetter bool) float64 {
	return quietAfter(samples, higherIsBetter, 0)
}

// quietAfter is the best of samples once the best trim of them are set
// aside.
func quietAfter(samples []float64, higherIsBetter bool, trim float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	if higherIsBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of durations sorted in
// place; p is in (0,1].
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(p*float64(len(ds)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(ds) {
		rank = len(ds)
	}
	return ds[rank-1]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mbPerS is decimal megabytes per second.
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
