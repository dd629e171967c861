package telemetry

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReqTraceLifecycle(t *testing.T) {
	rt := NewReqTrace("match")
	if rt.ID() == "" {
		t.Fatal("trace id empty")
	}
	rt.SetRuleset("ids")
	sp := rt.StartStage("queue")
	sp.SetAttr("depth", 3)
	sp.End()
	rt.Annotate("fault", "server.match")
	rt.Finish("ok", "")
	rt.Finish("error", "second finish must lose") // first outcome wins

	r := rt.Report()
	if r.ID != rt.ID() || r.Op != "match" || r.Ruleset != "ids" {
		t.Fatalf("report header = %q/%q/%q", r.ID, r.Op, r.Ruleset)
	}
	if r.Outcome != "ok" || r.Error != "" {
		t.Fatalf("outcome = %q err=%q, want first Finish to stick", r.Outcome, r.Error)
	}
	if len(r.Stages) != 1 || r.Stages[0].Name != "queue" {
		t.Fatalf("stages = %+v", r.Stages)
	}
	if len(r.Stages[0].Attrs) != 1 || r.Stages[0].Attrs[0].Key != "depth" || r.Stages[0].Attrs[0].Value != 3 {
		t.Fatalf("stage attrs = %+v", r.Stages[0].Attrs)
	}
	if len(r.Notes) != 1 || r.Notes[0] != (StrAttr{"fault", "server.match"}) {
		t.Fatalf("notes = %+v", r.Notes)
	}
	if !r.Faulted() {
		t.Fatal("Faulted() = false with a fault note")
	}
}

func TestReqTraceInFlightReport(t *testing.T) {
	rt := NewReqTrace("feed")
	sp := rt.StartStage("run") // never ended
	_ = sp
	r := rt.Report()
	if r.Outcome != "in-flight" {
		t.Fatalf("unfinished outcome = %q, want in-flight", r.Outcome)
	}
	if len(r.Stages) != 1 || r.Stages[0].DurationMS < 0 {
		t.Fatalf("open stage should report elapsed time, got %+v", r.Stages)
	}
}

func TestReqTraceFinishEndsOpenStages(t *testing.T) {
	rt := NewReqTrace("compile-regex")
	rt.StartStage("regexc.parse").End()
	open := rt.StartStage("regexc.glushkov") // leaked: never ended
	time.Sleep(2 * time.Millisecond)
	rt.Finish("error", "pattern 1: missing )")
	first := rt.Report()
	time.Sleep(2 * time.Millisecond)
	open.End()
	rt.Finish("ok", "")
	if second := rt.Report(); !reflect.DeepEqual(first, second) {
		t.Fatalf("a finished report changed:\n%s\n%s", first, second)
	}
	if len(first.Notes) != 1 || first.Notes[0] != (StrAttr{"open_stage", "regexc.glushkov"}) {
		t.Fatalf("notes = %+v, want one open_stage=regexc.glushkov", first.Notes)
	}
	st := first.Stage("regexc.glushkov")
	if st == nil || st.DurationMS <= 0 || st.StartMS+st.DurationMS > first.DurationMS+1e-6 {
		t.Fatalf("open stage %+v must end at the trace's end, %.3fms", st, first.DurationMS)
	}
}

func TestReqTraceReportSortsStages(t *testing.T) {
	rt := NewReqTrace("match")
	base := time.Now()
	// Install spans out of order with controlled starts; Report must sort
	// by start time with name as the tie-break.
	rt.stages = []*Span{
		{name: "wal", start: base.Add(30 * time.Millisecond)},
		{name: "run", start: base.Add(10 * time.Millisecond)},
		{name: "queue", start: base},
		{name: "lease", start: base.Add(10 * time.Millisecond)},
	}
	var got []string
	for _, s := range rt.Report().Stages {
		got = append(got, s.Name)
	}
	want := "queue,lease,run,wal"
	if strings.Join(got, ",") != want {
		t.Fatalf("stage order = %v, want %s", got, want)
	}
}

func TestNilReqTraceIsNoop(t *testing.T) {
	var rt *ReqTrace
	if rt.ID() != "" {
		t.Fatal("nil trace id")
	}
	sp := rt.StartStage("queue") // nil span
	sp.SetAttr("k", 1)
	sp.End()
	rt.SetRuleset("x")
	rt.Annotate("fault", "p")
	rt.Adopt(NewReqTrace("compile").Done(nil))
	rt.Finish("ok", "")
	if rt.Report() != nil || rt.Done(nil) != nil {
		t.Fatal("nil trace must report nil")
	}
	if rt.Report().Stage("x") != nil {
		t.Fatal("nil report Stage must be nil")
	}
}

// TestReqReportStageLookup covers what a compile report's readers use:
// Stage and Attr look-ups, SetAttr overwriting, and Done's two outcomes.
func TestReqReportStageLookup(t *testing.T) {
	tr := NewReqTrace("compile")
	s := tr.StartStage("parse")
	s.SetAttr("patterns", 3)
	s.SetAttr("patterns", 5)
	s.SetAttr("states", 40)
	time.Sleep(time.Millisecond)
	s.End()
	tr.StartStage("map").End()

	r := tr.Done(nil)
	if r.Op != "compile" || r.Outcome != "ok" || len(r.Stages) != 2 {
		t.Fatalf("report = %+v", r)
	}
	p := r.Stage("parse")
	if p == nil || r.Stage("missing") != nil {
		t.Fatalf("Stage(parse) = %v, Stage(missing) = %v", p, r.Stage("missing"))
	}
	if p.Attr("patterns") != 5 || p.Attr("states") != 40 || p.Attr("missing") != 0 {
		t.Errorf("attrs = %v", p.Attrs)
	}
	if p.DurationMS <= 0 || r.DurationMS < p.DurationMS {
		t.Errorf("durations: stage %vms total %vms", p.DurationMS, r.DurationMS)
	}
	failed := NewReqTrace("compile").Done(fmt.Errorf("pattern 0: bad"))
	if failed.Outcome != "error" || failed.Error != "pattern 0: bad" {
		t.Errorf("Done(err) = %q %q", failed.Outcome, failed.Error)
	}
}

// TestReqTraceAdopt: a finished compile's stages land in the request
// that ran it at the wall-clock offsets they happened at, attributes and
// durations intact, sorted in with the request's own stages.
func TestReqTraceAdopt(t *testing.T) {
	req := NewReqTrace("rulesets.compile")
	time.Sleep(2 * time.Millisecond) // the request is this old when the compile starts
	compile := NewReqTrace("compile-regex")
	sp := compile.StartStage("regexc.parse")
	sp.SetAttr("patterns", 3)
	time.Sleep(time.Millisecond)
	sp.End()
	compile.StartStage("machine.build").End()
	rep := compile.Done(nil)

	req.Adopt(rep)
	req.StartStage("wal").End()
	req.Finish("ok", "")
	got := req.Report()
	var names []string
	for _, st := range got.Stages {
		names = append(names, st.Name)
	}
	if strings.Join(names, ",") != "regexc.parse,machine.build,wal" {
		t.Fatalf("stages = %v", names)
	}
	parse, orig := got.Stage("regexc.parse"), rep.Stage("regexc.parse")
	if parse.Attr("patterns") != 3 {
		t.Errorf("adopted attrs = %v", parse.Attrs)
	}
	if d := parse.DurationMS - orig.DurationMS; d > 1e-3 || d < -1e-3 {
		t.Errorf("adopted duration %vms, recorded %vms", parse.DurationMS, orig.DurationMS)
	}
	// Re-based onto the request's clock: the compile began ≥ 2 ms in.
	if parse.StartMS < 2 || parse.StartMS < orig.StartMS {
		t.Errorf("adopted start +%vms (compile-relative +%vms), want ≥ 2ms into the request", parse.StartMS, orig.StartMS)
	}
	if len(rep.Stages) != 2 {
		t.Errorf("Adopt changed the adopted report: %+v", rep.Stages)
	}
}

// TestTraceConcurrentSpans opens, annotates, ends and snapshots spans of
// one trace from many goroutines (under -race).
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewReqTrace("t")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s := tr.StartStage("p")
				s.SetAttr("n", 1)
				s.End()
				_ = tr.Report()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Report().Stages); got != 800 {
		t.Errorf("stages = %d, want 800", got)
	}
}

func TestWithReqTraceRoundTrip(t *testing.T) {
	ctx := context.Background()
	if ReqTraceFrom(ctx) != nil {
		t.Fatal("empty ctx must carry no trace")
	}
	if WithReqTrace(ctx, nil) != ctx {
		t.Fatal("nil trace must not wrap ctx")
	}
	rt := NewReqTrace("match")
	if got := ReqTraceFrom(WithReqTrace(ctx, rt)); got != rt {
		t.Fatalf("round trip = %p, want %p", got, rt)
	}
}

// rep builds a completed report for ring tests with a deterministic id
// and start time.
func rep(i int, outcome string, durMS float64, notes ...StrAttr) *ReqReport {
	return &ReqReport{
		ID:         fmt.Sprintf("t-%08d", i),
		Op:         "match",
		Start:      time.Unix(0, int64(i)*int64(time.Millisecond)),
		DurationMS: durMS,
		Outcome:    outcome,
		Notes:      notes,
	}
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4, 0)
	for i := 0; i < 10; i++ {
		r.Add(rep(i, "ok", 1))
	}
	s := r.Snapshot()
	if len(s.Recent) != 4 {
		t.Fatalf("recent = %d traces, want 4", len(s.Recent))
	}
	// Newest first: 9,8,7,6.
	for i, want := range []int{9, 8, 7, 6} {
		if s.Recent[i].ID != rep(want, "ok", 1).ID {
			t.Fatalf("recent[%d] = %s, want t-%08d", i, s.Recent[i].ID, want)
		}
	}
	if len(s.Pinned) != 0 {
		t.Fatalf("healthy fast traces must not pin, got %d", len(s.Pinned))
	}
	if r.Find(rep(0, "ok", 1).ID) != nil {
		t.Fatal("evicted trace still findable")
	}
	if r.Find(rep(9, "ok", 1).ID) == nil {
		t.Fatal("retained trace not findable")
	}
}

func TestTraceRingPinsInterestingTraces(t *testing.T) {
	r := NewTraceRing(4, 100*time.Millisecond)
	errRep := rep(0, "error", 1)
	slowRep := rep(1, "ok", 150)
	faultRep := rep(2, "ok", 1, StrAttr{"fault", "server.wal.append"})
	r.Add(errRep)
	r.Add(slowRep)
	r.Add(faultRep)
	// Flood with healthy traffic: pinned traces must survive.
	for i := 10; i < 30; i++ {
		r.Add(rep(i, "ok", 1))
	}
	for _, want := range []*ReqReport{errRep, slowRep, faultRep} {
		if r.Find(want.ID) == nil {
			t.Fatalf("pinned trace %s (%s) evicted by healthy traffic", want.ID, want.Outcome)
		}
	}
	s := r.Snapshot()
	if len(s.Pinned) != 3 {
		t.Fatalf("pinned = %d, want 3", len(s.Pinned))
	}
	if s.SlowMS != 100 {
		t.Fatalf("SlowMS = %v, want 100", s.SlowMS)
	}
}

func TestTraceRingSlowDisabled(t *testing.T) {
	r := NewTraceRing(4, 0) // slow <= 0: only errors and faults pin
	r.Add(rep(0, "ok", 1e9))
	if len(r.Snapshot().Pinned) != 0 {
		t.Fatal("slow pinning must be off with threshold 0")
	}
	r.Add(rep(1, "timeout", 1))
	if len(r.Snapshot().Pinned) != 1 {
		t.Fatal("non-ok outcomes must still pin")
	}
}

func TestTraceRingAllDedupes(t *testing.T) {
	r := NewTraceRing(4, 0)
	bad := rep(5, "error", 1)
	r.Add(bad) // lands in both recent and pinned
	r.Add(rep(6, "ok", 1))
	all := r.All()
	var hits int
	for _, rp := range all {
		if rp.ID == bad.ID {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("trace in both sections appeared %d times in All, want 1", hits)
	}
	if len(all) != 2 {
		t.Fatalf("All = %d traces, want 2", len(all))
	}
	if all[0].ID != rep(6, "ok", 1).ID {
		t.Fatalf("All must be newest first, got %s first", all[0].ID)
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var r *TraceRing
	r.Add(rep(0, "ok", 1))
	r.Add(nil)
	if r.Find("x") != nil || r.All() != nil {
		t.Fatal("nil ring must be inert")
	}
	if s := r.Snapshot(); s == nil || len(s.Recent) != 0 {
		t.Fatal("nil ring snapshot must be empty, not nil")
	}
	NewTraceRing(4, 0).Add(nil) // nil report is ignored
	// The constructor takes the configured values as they stand: a negative
	// size is "tracing off" (the nil ring), zero the default size, and a
	// negative slow threshold "no slow pinning".
	if NewTraceRing(-1, time.Second) != nil {
		t.Fatal("negative size must yield the nil (disabled) ring")
	}
	if def := NewTraceRing(0, -time.Second); len(def.recent.slots) != DefaultTraceRingSize || def.Snapshot().SlowMS != 0 {
		t.Fatalf("NewTraceRing(0, <0) = %d slots, slow %vms", len(def.recent.slots), def.Snapshot().SlowMS)
	}
}

// TestTraceRingConcurrent exercises the lock-free rings under -race:
// many writers completing traces while readers snapshot and search.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8, time.Millisecond)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				rt := NewReqTrace("match")
				sp := rt.StartStage("run")
				sp.SetAttr("bytes", 64)
				sp.End()
				outcome := "ok"
				if i%7 == 0 {
					outcome = "error"
				}
				rt.Finish(outcome, "")
				r.Add(rt.Report())
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if len(s.Recent) > 8 || len(s.Pinned) > 8 {
				panic("ring overflowed its capacity")
			}
			r.Find("nope")
			r.All()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := len(r.Snapshot().Recent); got != 8 {
		t.Fatalf("recent ring holds %d traces after 2000 adds, want 8", got)
	}
}

func TestReqReportFormat(t *testing.T) {
	rt := NewReqTrace("match")
	rt.SetRuleset("ids")
	sp := rt.StartStage("run")
	sp.SetAttr("bytes", 65536)
	sp.End()
	rt.Annotate("fault", "server.match")
	rt.Finish("error", "injected fault at server.match")
	out := rt.Report().String()
	for _, want := range []string{rt.ID(), "match", "ruleset=ids", "error", "run", "bytes=65536", "fault=server.match", "injected fault"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
	var nilRep *ReqReport
	if got := nilRep.String(); !strings.Contains(got, "no trace") {
		t.Fatalf("nil report String = %q", got)
	}
	if nilRep.Faulted() {
		t.Fatal("nil report Faulted")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewReqTrace("x").ID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}
