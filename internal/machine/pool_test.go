package machine

import (
	"context"
	"sync"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

func poolPlacement(t *testing.T) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet([]string{"cat", "dog.*food"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPoolGetPutRecycles(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{CollectMatches: true}, 4)
	m1, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the machine, return it, and check the next Get hands it back
	// Reset.
	mustRun(m1, []byte("the cat"))
	if m1.Pos() == 0 {
		t.Fatal("machine did not advance")
	}
	p.Put(m1)
	m2, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("free-list machine was not recycled")
	}
	if m2.Pos() != 0 || len(mustRun(m2, nil).Matches) != 0 {
		t.Errorf("recycled machine not reset: pos=%d", m2.Pos())
	}
	st := p.Stats()
	if st.Built != 1 || st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolIdleBound(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{}, 2)
	ms, err := p.GetNContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p.PutAll(ms)
	st := p.Stats()
	if st.Idle != 2 {
		t.Errorf("idle = %d, want bound 2", st.Idle)
	}
	if st.Built != 5 || st.Puts != 5 {
		t.Errorf("stats = %+v", st)
	}
	p.Put(nil) // no-op
	if got := p.Stats().Puts; got != 5 {
		t.Errorf("Put(nil) counted: puts = %d", got)
	}
}

// TestPoolConcurrentCheckout exercises the pool from many goroutines under
// -race: every borrower must get an exclusive machine and identical match
// counts.
func TestPoolConcurrentCheckout(t *testing.T) {
	p := NewPool(poolPlacement(t), Options{CollectMatches: true}, 8)
	input := []byte("the cat ate dog brand food")
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m, err := p.GetContext(context.Background())
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := len(mustRun(m, input).Matches); got != 2 {
					errs <- "wrong match count"
				}
				p.Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := p.Stats()
	if st.Gets != 16*8 || st.Puts != 16*8 {
		t.Errorf("stats = %+v", st)
	}
	if st.Idle > 8 {
		t.Errorf("idle %d exceeds bound", st.Idle)
	}
}
