package faults

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cacheautomaton/internal/telemetry"
)

// record runs n Checks at point and returns which indexes fired as
// errors (delays and panics are folded in by the caller's rule choice).
func record(t *testing.T, in *Injector, point string, n int) []bool {
	t.Helper()
	Enable(in)
	defer Disable()
	fired := make([]bool, n)
	for i := 0; i < n; i++ {
		fired[i] = Check(nil, point) != nil
	}
	return fired
}

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if active.Load() != nil {
		t.Fatal("an injector is still installed after Disable")
	}
	for i := 0; i < 1000; i++ {
		if err := Check(nil, "anything.at.all"); err != nil {
			t.Fatalf("disabled Check returned %v", err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rules := map[string]Rule{"p": {Rate: 0.3}}
	a := record(t, NewInjector(42, rules), "p", 500)
	b := record(t, NewInjector(42, rules), "p", 500)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed drew different fault sequences")
	}
	c := record(t, NewInjector(43, rules), "p", 500)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds drew identical fault sequences")
	}
}

func TestRateIsRespected(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.05, 0.5, 1.0} {
		in := NewInjector(7, map[string]Rule{"p": {Rate: rate}})
		fired := 0
		for _, f := range record(t, in, "p", n) {
			if f {
				fired++
			}
		}
		got := float64(fired) / n
		if got < rate*0.8-0.01 || got > rate*1.2+0.01 {
			t.Errorf("rate %.2f: fired %.3f of %d checks", rate, got, n)
		}
		st := in.Stats()["p"]
		if st.Checks != n || st.Errors != uint64(fired) {
			t.Errorf("rate %.2f: stats = %+v, fired %d", rate, st, fired)
		}
	}
}

func TestErrorKindAndIdentity(t *testing.T) {
	in := NewInjector(1, map[string]Rule{"io.read": {Rate: 1}})
	Enable(in)
	defer Disable()
	err := Check(nil, "io.read")
	if err == nil {
		t.Fatal("rate-1 point did not fire")
	}
	if !IsInjected(err) {
		t.Fatalf("IsInjected(%v) = false", err)
	}
	if !IsInjected(fmt.Errorf("feed: %w", err)) {
		t.Fatal("IsInjected missed a wrapped injected error")
	}
	if IsInjected(errors.New("organic failure")) {
		t.Fatal("IsInjected claimed an organic error")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "io.read" {
		t.Fatalf("error carries wrong point: %v", err)
	}
}

func TestDelayKind(t *testing.T) {
	in := NewInjector(3, map[string]Rule{"slow": {Rate: 1, Kinds: KindDelay, MaxDelay: 3 * time.Millisecond}})
	Enable(in)
	defer Disable()
	for i := 0; i < 20; i++ {
		if err := Check(nil, "slow"); err != nil {
			t.Fatalf("delay kind returned error %v", err)
		}
	}
	if st := in.Stats()["slow"]; st.Delays != 20 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanicKindCarriesPoint(t *testing.T) {
	in := NewInjector(5, map[string]Rule{"boom": {Rate: 1, Kinds: KindPanic}})
	Enable(in)
	defer Disable()
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok || p.Point != "boom" {
			t.Fatalf("recovered %v, want *Panic at boom", r)
		}
		if p.String() == "" {
			t.Fatal("empty panic description")
		}
	}()
	Check(nil, "boom")
	t.Fatal("rate-1 panic point did not panic")
}

// TestCheckNotesFault pins the accounting rule: an injected error or
// panic notes fault=<point> on the trace Check was handed, once, before
// Check returns or panics; a delay notes nothing, and a nil trace is fine.
func TestCheckNotesFault(t *testing.T) {
	Enable(NewInjector(1, map[string]Rule{
		"err":   {Rate: 1, Kinds: KindError},
		"panic": {Rate: 1, Kinds: KindPanic},
		"delay": {Rate: 1, Kinds: KindDelay, MaxDelay: time.Microsecond},
	}))
	defer Disable()
	faultNotes := func(rt *telemetry.ReqTrace) []string {
		var out []string
		for _, n := range rt.Report().Notes {
			if n.Key == "fault" {
				out = append(out, n.Value)
			}
		}
		return out
	}

	rt := telemetry.NewReqTrace("t")
	if err := Check(rt, "err"); !IsInjected(err) {
		t.Fatalf("rate-1 error point returned %v", err)
	}
	if err := Check(rt, "delay"); err != nil {
		t.Fatalf("delay point returned %v", err)
	}
	func() {
		defer func() { _ = recover() }()
		Check(rt, "panic")
	}()
	if got := faultNotes(rt); fmt.Sprint(got) != "[err panic]" {
		t.Fatalf("fault notes = %q, want [err panic]", got)
	}
	if err := Check(nil, "err"); !IsInjected(err) {
		t.Fatalf("nil trace: %v", err)
	}
}

func TestMixedKindsAllOccur(t *testing.T) {
	in := NewInjector(11, map[string]Rule{
		"mix": {Rate: 1, Kinds: KindError | KindDelay | KindPanic, MaxDelay: time.Microsecond},
	})
	Enable(in)
	defer Disable()
	for i := 0; i < 200; i++ {
		func() {
			defer func() { recover() }()
			Check(nil, "mix")
		}()
	}
	st := in.Stats()["mix"]
	if st.Errors == 0 || st.Delays == 0 || st.Panics == 0 {
		t.Fatalf("200 rate-1 draws missed a kind: %+v", st)
	}
	if st.Errors+st.Delays+st.Panics != st.Checks {
		t.Fatalf("tallies do not sum to checks: %+v", st)
	}
}

func TestUnknownPointsNeverFireButAreSeen(t *testing.T) {
	in := NewInjector(2, map[string]Rule{"known": {Rate: 1}})
	Enable(in)
	defer Disable()
	for i := 0; i < 50; i++ {
		if err := Check(nil, "not.in.plan"); err != nil {
			t.Fatalf("unplanned point fired: %v", err)
		}
	}
	Check(nil, "known")
	seen := in.Seen()
	want := map[string]bool{"known": false, "not.in.plan": false}
	for _, s := range seen {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for name, hit := range want {
		if !hit {
			t.Errorf("Seen() missing %q (got %v)", name, seen)
		}
	}
}

func TestConcurrentChecksAreSafe(t *testing.T) {
	in := NewInjector(9, map[string]Rule{"c": {Rate: 0.5}})
	Enable(in)
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				Check(nil, "c")
				Check(nil, "uncovered")
			}
		}()
	}
	wg.Wait()
	if st := in.Stats()["c"]; st.Checks != 16000 {
		t.Fatalf("lost checks under concurrency: %+v", st)
	}
}

func TestKindListDefaultsToError(t *testing.T) {
	if ks := kindList(0); len(ks) != 1 || ks[0] != KindError {
		t.Fatalf("kindList(0) = %v", ks)
	}
}

func BenchmarkCheckDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if Check(nil, "hot.path") != nil {
			b.Fatal("fired while disabled")
		}
	}
}
