package telemetry

import (
	"cmp"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReqTrace is the one trace type: the timed stages of one operation. As
// the request-scoped flight recorder it rides a request's
// context.Context from the transport entry point (HTTP handler or TCP
// line dispatch) through worker-queue admission, machine leasing, the
// scan itself and the WAL append, collecting per-stage spans and string
// annotations (injected faults, outcomes) along the way; completed
// traces are snapshotted into a TraceRing, so a slow, failed or faulted
// request is explainable after the fact by the trace id the client
// received. A compile is traced the same way (regexc.Options.Trace,
// mapper.Config.Trace, the ca.Compile* entry points): its report is what
// Automaton.CompileReport returns and -trace-compile prints, and the
// serving node Adopts it into the request that compiled.
//
// A nil *ReqTrace is valid everywhere and makes every method a no-op,
// so instrumented code paths need no "is tracing on" conditionals —
// the disabled configuration costs one context lookup per seam.
type ReqTrace struct {
	id    string
	op    string
	start time.Time

	mu      sync.Mutex
	ruleset string
	stages  []*Span
	notes   []StrAttr
	outcome string
	errmsg  string
	done    bool
	total   time.Duration
}

// StrAttr is one string annotation on a trace (fault points, outcome
// detail).
type StrAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// traceProc is a per-process random prefix so ids from different server
// instances never collide; traceSeq makes ids unique within a process.
var (
	traceProc = func() string {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			// Fall back to the process start time; ids stay unique within
			// the process via traceSeq either way.
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
	}()
	traceSeq atomic.Uint64
)

// NewReqTrace opens a trace for one request of the given operation.
func NewReqTrace(op string) *ReqTrace { return NewReqTraceWithID(op, "") }

// NewReqTraceWithID opens a trace under a caller-supplied id — the
// cross-node propagation path: a cluster router mints the id once and
// every node adopting it (via the X-CA-Trace-Id request header) records
// its local stages under the same id, so one client request can be
// followed across every flight recorder it touched. An empty id mints a
// fresh one.
func NewReqTraceWithID(op, id string) *ReqTrace {
	if id == "" {
		id = fmt.Sprintf("%s-%08d", traceProc, traceSeq.Add(1))
	}
	return &ReqTrace{id: id, op: op, start: time.Now()}
}

// ID returns the trace id ("" on a nil trace) — the value echoed to the
// client as X-CA-Trace-Id and accepted by /debug/requests?id=.
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartStage opens a named stage span (queue, lease, run, wal;
// regexc.parse, map.pack, machine.build). Stages may nest or overlap; the
// report orders them by start time. Safe on a nil trace (returns a nil
// span whose methods are no-ops).
func (t *ReqTrace) StartStage(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	t.stages = append(t.stages, s)
	t.mu.Unlock()
	return s
}

// Span is one timed stage of a ReqTrace — a request's queue wait, lease,
// run or WAL append, or a compile's parse, Glushkov, mapping and
// machine-build phases — with integer attributes (byte counts, state
// counts, partition counts, repair iterations, …). A nil *Span is valid
// and makes every method a no-op.
type Span struct {
	mu    sync.Mutex
	name  string
	start time.Time
	dur   time.Duration
	done  bool
	attrs []Attr
}

// Attr is one integer annotation on a span.
type Attr struct {
	Key   string
	Value int64
}

// SetAttr records (or overwrites) an attribute. Safe on a nil span.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// End closes the span. Ending twice keeps the first duration. Safe on a
// nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Adopt copies the stages of a finished report — the compile a request
// ran, recorded on the compiler's own trace — into t. Each keeps its
// wall-clock start (r.Start plus its offset), so on t's clock it lands
// where it happened. Safe on a nil trace and a nil report.
func (t *ReqTrace) Adopt(r *ReqReport) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range r.Stages {
		t.stages = append(t.stages, &Span{
			name:  st.Name,
			start: r.Start.Add(time.Duration(st.StartMS * float64(time.Millisecond))),
			dur:   time.Duration(st.DurationMS * float64(time.Millisecond)),
			done:  true,
			attrs: st.Attrs,
		})
	}
}

// SetRuleset records which rule set the request targeted.
func (t *ReqTrace) SetRuleset(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ruleset = name
	t.mu.Unlock()
}

// Annotate appends one string annotation. Unlike Span.SetAttr it never
// overwrites: annotating "fault" twice records two entries, so every
// injected fault that touched the request stays visible.
func (t *ReqTrace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notes = append(t.notes, StrAttr{Key: key, Value: value})
	t.mu.Unlock()
}

// Finish closes the trace with an outcome ("ok", "error", "timeout",
// "fault", "panic") and an optional error message. Finishing twice
// keeps the first outcome. A stage still open is ended at the Finish
// instant and named by an open_stage note, so no stage outlasts its
// trace, a finished report never changes, and a leaked span shows on
// /debug/requests and in -trace-compile.
func (t *ReqTrace) Finish(outcome, errmsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	now := time.Now()
	t.done = true
	t.outcome = outcome
	t.errmsg = errmsg
	t.total = now.Sub(t.start)
	for _, s := range t.stages {
		s.mu.Lock()
		if !s.done {
			s.dur = now.Sub(s.start)
			s.done = true
			t.notes = append(t.notes, StrAttr{Key: "open_stage", Value: s.name})
		}
		s.mu.Unlock()
	}
}

// Done finishes the trace — "ok", or "error" with err's message — and
// returns its report: how a compile closes its trace. Nil-safe.
func (t *ReqTrace) Done(err error) *ReqReport {
	if err != nil {
		t.Finish("error", err.Error())
	} else {
		t.Finish("ok", "")
	}
	return t.Report()
}

// ReqReport is the immutable snapshot of one trace — what the TraceRing
// stores and /debug/requests serves.
type ReqReport struct {
	ID         string        `json:"id"`
	Op         string        `json:"op"`
	Ruleset    string        `json:"ruleset,omitempty"`
	Start      time.Time     `json:"start"`
	DurationMS float64       `json:"duration_ms"`
	Outcome    string        `json:"outcome"`
	Error      string        `json:"error,omitempty"`
	Stages     []StageReport `json:"stages,omitempty"`
	Notes      []StrAttr     `json:"notes,omitempty"`
}

// StageReport is one stage of a ReqReport. StartMS is the stage's
// offset from the trace start, so overlap and dead time between stages
// are visible.
type StageReport struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// Report snapshots the trace. Stages are sorted by start time (name as
// the tie-break), so concurrent span creation still yields a
// deterministic report. An unfinished trace and its open stages report
// the time elapsed so far. Safe on a nil trace (returns nil).
func (t *ReqTrace) Report() *ReqReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.total
	outcome := t.outcome
	if !t.done {
		total = time.Since(t.start)
		outcome = "in-flight"
	}
	r := &ReqReport{
		ID:         t.id,
		Op:         t.op,
		Ruleset:    t.ruleset,
		Start:      t.start,
		DurationMS: ms(total),
		Outcome:    outcome,
		Error:      t.errmsg,
		Notes:      append([]StrAttr(nil), t.notes...),
	}
	stages := slices.Clone(t.stages)
	slices.SortStableFunc(stages, func(a, b *Span) int {
		return cmp.Or(a.start.Compare(b.start), strings.Compare(a.name, b.name))
	})
	r.Stages = make([]StageReport, 0, len(stages))
	for _, s := range stages {
		s.mu.Lock()
		d := s.dur
		if !s.done {
			d = time.Since(s.start)
		}
		r.Stages = append(r.Stages, StageReport{
			Name:       s.name,
			StartMS:    ms(s.start.Sub(t.start)),
			DurationMS: ms(d),
			Attrs:      append([]Attr(nil), s.attrs...),
		})
		s.mu.Unlock()
	}
	return r
}

// Stage returns the first stage with the given name, or nil.
func (r *ReqReport) Stage(name string) *StageReport {
	if r == nil {
		return nil
	}
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// Attr returns the value of the stage's attribute key, or 0.
func (s StageReport) Attr(key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return 0
}

// Faulted reports whether the trace carries at least one injected-fault
// annotation; the TraceRing pins such traces alongside slow and error
// ones.
func (r *ReqReport) Faulted() bool {
	if r == nil {
		return false
	}
	for _, n := range r.Notes {
		if n.Key == "fault" {
			return true
		}
	}
	return false
}

// Format writes a human-readable breakdown; the name column grows to fit
// a compile's longer stage names (regexc.glushkov, map.components):
//
//	a1b2c3d4-00000042  match  ruleset=ids  ok  12.410ms
//	  queue        +0.000ms      0.030ms
//	  lease        +0.040ms      0.110ms  machines=1
//	  run          +0.150ms     12.020ms  bytes=65536 matches=3
func (r *ReqReport) Format(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "(no trace)")
		return err
	}
	rs := ""
	if r.Ruleset != "" {
		rs = "  ruleset=" + r.Ruleset
	}
	if _, err := fmt.Fprintf(w, "%s  %s%s  %s  %.3fms\n", r.ID, r.Op, rs, r.Outcome, r.DurationMS); err != nil {
		return err
	}
	width := 8
	for _, s := range r.Stages {
		width = max(width, len(s.Name))
	}
	for _, s := range r.Stages {
		var attrs strings.Builder
		for _, a := range s.Attrs {
			fmt.Fprintf(&attrs, " %s=%d", a.Key, a.Value)
		}
		if _, err := fmt.Fprintf(w, "  %-*s %+10.3fms %10.3fms %s\n", width, s.Name, s.StartMS, s.DurationMS, attrs.String()); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  %-*s %s=%s\n", width, "note", n.Key, n.Value); err != nil {
			return err
		}
	}
	if r.Error != "" {
		if _, err := fmt.Fprintf(w, "  %-*s %s\n", width, "error", r.Error); err != nil {
			return err
		}
	}
	return nil
}

// String renders the report as Format does.
func (r *ReqReport) String() string {
	var b strings.Builder
	_ = r.Format(&b)
	return b.String()
}

// reqTraceKey carries a *ReqTrace through a context.Context.
type reqTraceKey struct{}

// WithReqTrace returns ctx carrying rt (ctx itself when rt is nil).
func WithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// ReqTraceFrom returns the trace carried by ctx, or nil. The nil result
// is directly usable: every ReqTrace method is a no-op on nil.
func ReqTraceFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}

// TraceRing retains completed request traces for /debug/requests. It is
// two fixed-size lock-free rings over one id space:
//
//   - recent holds the last N completed traces, whatever their outcome;
//   - pinned holds only the interesting ones — slow (duration at or
//     above the slow threshold), error/timeout/panic outcomes, and
//     traces carrying injected-fault annotations — so a burst of fast,
//     healthy traffic can never evict the one trace that explains an
//     incident. Pinned traces are bounded by their own N slots, evicted
//     only by newer pinned traces.
//
// Writers only do an atomic increment and an atomic pointer store, so
// tracing stays off the serving hot path's lock graph entirely.
type TraceRing struct {
	slow   time.Duration
	recent ringSlots
	pinned ringSlots
}

// ringSlots is one lock-free overwrite ring of reports.
type ringSlots struct {
	slots []atomic.Pointer[ReqReport]
	next  atomic.Uint64
}

func (r *ringSlots) add(rep *ReqReport) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(rep)
}

func (r *ringSlots) snapshot() []*ReqReport {
	out := make([]*ReqReport, 0, len(r.slots))
	for i := range r.slots {
		if rep := r.slots[i].Load(); rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// DefaultTraceRingSize is the per-ring capacity when none is given.
const DefaultTraceRingSize = 256

// NewTraceRing builds a ring of n recent plus n pinned slots, taking the
// configured values as they stand: n == 0 uses DefaultTraceRingSize, and
// n < 0 disables tracing by returning the nil ring. Traces at least slow
// long are pinned; slow <= 0 disables slowness pinning (errors and
// faults still pin).
func NewTraceRing(n int, slow time.Duration) *TraceRing {
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{
		slow:   max(slow, 0),
		recent: ringSlots{slots: make([]atomic.Pointer[ReqReport], n)},
		pinned: ringSlots{slots: make([]atomic.Pointer[ReqReport], n)},
	}
}

// Add records one completed trace. Safe on a nil ring and a nil report.
func (r *TraceRing) Add(rep *ReqReport) {
	if r == nil || rep == nil {
		return
	}
	r.recent.add(rep)
	if r.isPinned(rep) {
		r.pinned.add(rep)
	}
}

func (r *TraceRing) isPinned(rep *ReqReport) bool {
	if rep.Outcome != "ok" {
		return true
	}
	if r.slow > 0 && rep.DurationMS >= ms(r.slow) {
		return true
	}
	return rep.Faulted()
}

// Find returns the retained trace with the given id, or nil. Pinned
// slots are searched first: they live longer.
func (r *TraceRing) Find(id string) *ReqReport {
	if r == nil {
		return nil
	}
	for _, rep := range append(r.pinned.snapshot(), r.recent.snapshot()...) {
		if rep.ID == id {
			return rep
		}
	}
	return nil
}

// RingSnapshot is the /debug/requests payload: the retained traces,
// newest first in each section. A slow or failed trace that is still
// recent appears in both sections.
type RingSnapshot struct {
	SlowMS float64      `json:"slow_ms"`
	Recent []*ReqReport `json:"recent"`
	Pinned []*ReqReport `json:"pinned"`
}

// Snapshot returns the retained traces, each section sorted newest
// first (ties broken by id so the order is deterministic).
func (r *TraceRing) Snapshot() *RingSnapshot {
	if r == nil {
		return &RingSnapshot{}
	}
	return &RingSnapshot{
		SlowMS: ms(r.slow),
		Recent: sortReports(r.recent.snapshot()),
		Pinned: sortReports(r.pinned.snapshot()),
	}
}

// All returns every retained trace exactly once (a trace held by both
// sections is deduplicated by id), newest first.
func (r *TraceRing) All() []*ReqReport {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []*ReqReport
	for _, rep := range append(r.pinned.snapshot(), r.recent.snapshot()...) {
		if !seen[rep.ID] {
			seen[rep.ID] = true
			out = append(out, rep)
		}
	}
	return sortReports(out)
}

func sortReports(reps []*ReqReport) []*ReqReport {
	slices.SortStableFunc(reps, func(a, b *ReqReport) int {
		return cmp.Or(b.Start.Compare(a.Start), strings.Compare(b.ID, a.ID))
	})
	return reps
}
