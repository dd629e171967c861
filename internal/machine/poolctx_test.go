package machine

import (
	"context"
	"sync"
	"testing"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// traceStages runs fn with a fresh request trace on the context and
// returns the finished report.
func traceStages(t *testing.T, fn func(ctx context.Context) error) *telemetry.ReqReport {
	t.Helper()
	rt := telemetry.NewReqTrace("test")
	err := fn(telemetry.WithReqTrace(context.Background(), rt))
	if err != nil {
		rt.Finish("error", err.Error())
	} else {
		rt.Finish("ok", "")
	}
	return rt.Report()
}

func leaseStage(t *testing.T, r *telemetry.ReqReport) telemetry.StageReport {
	t.Helper()
	for _, s := range r.Stages {
		if s.Name == "lease" {
			return s
		}
	}
	t.Fatalf("no lease stage in %+v", r.Stages)
	return telemetry.StageReport{}
}

func attr(s telemetry.StageReport, key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

func TestPoolGetContextRecordsLeaseSpan(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{}, 4)
	r := traceStages(t, func(ctx context.Context) error {
		m, err := p.GetContext(ctx)
		if err != nil {
			return err
		}
		p.Put(m)
		return nil
	})
	s := leaseStage(t, r)
	if v, ok := attr(s, "machines"); !ok || v != 1 {
		t.Fatalf("lease machines attr = %d (%v), want 1", v, ok)
	}
	if v, ok := attr(s, "built"); !ok || v != 1 {
		t.Fatalf("lease built attr = %d (%v), want 1 (cold pool)", v, ok)
	}

	// Concurrent borrowers on a cold pool: each span must count its own
	// cold build only, so the built attributes sum to the pool's total.
	p = NewPool(poolPlacement(t), Options{}, 4)
	const borrowers = 8
	reports := make([]*telemetry.ReqReport, borrowers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := telemetry.NewReqTrace("test")
			<-start
			m, err := p.GetContext(telemetry.WithReqTrace(context.Background(), rt))
			if err != nil {
				t.Error(err)
			}
			p.Put(m)
			rt.Finish("ok", "")
			reports[i] = rt.Report()
		}()
	}
	close(start)
	wg.Wait()
	var built int64
	for _, r := range reports {
		v, _ := attr(leaseStage(t, r), "built")
		built += v
	}
	if st := p.Stats(); built != st.Built {
		t.Fatalf("lease built attrs sum to %d, pool built %d machines", built, st.Built)
	}
}

func TestPoolGetNContextRecordsLeaseSpan(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{}, 4)
	r := traceStages(t, func(ctx context.Context) error {
		ms, err := p.GetNContext(ctx, 3)
		if err != nil {
			return err
		}
		p.PutAll(ms)
		return nil
	})
	s := leaseStage(t, r)
	if v, ok := attr(s, "machines"); !ok || v != 3 {
		t.Fatalf("lease machines attr = %d (%v), want 3", v, ok)
	}
	st := p.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("lease imbalance: %+v", st)
	}
}

func TestPoolGetContextAnnotatesInjectedFault(t *testing.T) {
	faults.Enable(faults.NewInjector(1, map[string]faults.Rule{
		"machine.pool.get": {Rate: 1},
	}))
	t.Cleanup(faults.Disable)
	p := NewPool(poolPlacement(t), Options{}, 4)
	r := traceStages(t, func(ctx context.Context) error {
		if m, err := p.GetContext(ctx); err == nil {
			p.Put(m)
			t.Fatal("injected fault did not surface")
		}
		if ms, err := p.GetNContext(ctx, 2); err == nil {
			p.PutAll(ms)
			t.Fatal("injected fault did not surface from GetNContext")
		}
		return nil
	})
	var faultNotes int
	for _, n := range r.Notes {
		if n.Key == "fault" && n.Value == "machine.pool.get" {
			faultNotes++
		}
	}
	if faultNotes != 2 {
		t.Fatalf("fault notes = %d, want one per failed lease call", faultNotes)
	}
	st := p.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("failed lease leaked machines: %+v", st)
	}
}

func TestPoolGetContextNilTraceNoop(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{}, 4)
	m, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m)
}
