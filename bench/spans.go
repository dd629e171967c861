package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the bench around the call (the product carries no bench spans). Spans
// of one request share Req; Parent is the span that caused this one, -1
// for a root.
//
// A Replay span was not nested in its parent in real time: the bench
// re-ran the parent's request through the next inner entry point (HTTP
// → Server.Match → Lease.RunContext → Machine.RunContext) right after
// it. Its duration is what the inner layer costs for that request, so a
// layer's self time is its span minus its children either way.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sampleEvery is the replay sampling rate on the wire workloads.
const sampleEvery = 64

// nextReq allocates a request id (0 when untraced). A workload replays
// the requests whose id is a multiple of its sampling rate.
func (t *tracer) nextReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int32, req int64, replay bool) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, Replay: replay})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// traceSummary is the subtraction already done: per span name, how many
// there were, their total duration and their total self time.
type traceSummary struct {
	Roots  int           `json:"roots"`
	RootNS int64         `json:"root_ns"`
	SelfNS int64         `json:"self_ns"`
	Cover  float64       `json:"self_over_root"`
	ByName []nameSummary `json:"by_name"`
}

type nameSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// summarize computes each span's self time — its duration minus its
// direct children's — and totals it by name. Within one request the
// bench's children never overlap (a request is driven by one
// goroutine), so subtracting durations equals subtracting covered
// intervals. A replayed child that ran longer than its parent (a GC
// pause landed on the replay) clamps the parent's self time at zero,
// which is what lets the self-time total drift above the root total.
func (t *tracer) summarize() traceSummary {
	var sum traceSummary
	if t == nil {
		return sum
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*nameSummary{}
	for _, s := range t.spans {
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		n := by[s.Name]
		if n == nil {
			n = &nameSummary{Name: s.Name, Replay: s.Replay}
			by[s.Name] = n
		}
		n.Count++
		n.TotalNS += d
		n.SelfNS += self
		sum.SelfNS += self
		if s.Parent < 0 {
			sum.Roots++
			sum.RootNS += d
		}
	}
	for _, n := range by {
		sum.ByName = append(sum.ByName, *n)
	}
	sort.Slice(sum.ByName, func(i, j int) bool { return sum.ByName[i].SelfNS > sum.ByName[j].SelfNS })
	if sum.RootNS > 0 {
		sum.Cover = float64(sum.SelfNS) / float64(sum.RootNS)
	}
	return sum
}

// write stores the spans and their summary as trace-<workload>.json.
func (t *tracer) write(dir, workload string) (traceSummary, error) {
	sum := t.summarize()
	doc := struct {
		Workload string       `json:"workload"`
		Summary  traceSummary `json:"summary"`
		Spans    []span       `json:"spans"`
	}{workload, sum, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return sum, err
	}
	return sum, os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
