package machine

import (
	"context"
	"fmt"
	"sync"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/telemetry"
)

// PoolStats is a snapshot of a Pool's checkout accounting.
type PoolStats struct {
	// Built is how many machines the pool has constructed in total.
	Built int64
	// Gets and Puts count checkouts and returns.
	Gets, Puts int64
	// Hits counts Gets served from the free list (Gets - Hits machines
	// were built on demand).
	Hits int64
	// Idle is the current free-list length.
	Idle int
}

// Pool is a concurrency-safe checkout pool of replicated machines over one
// placement. It backs the facade's machine leasing: every checkout hands the
// caller an exclusively-owned, freshly Reset machine, so concurrent
// borrowers never share mutable simulator state. Machines are built lazily
// on demand and recycled through Put up to a bounded idle depth (returns
// beyond the bound are dropped for the garbage collector), which caps the
// pool's steady-state memory at maxIdle machines — each the programmed
// rows of its partitions (see New) — while letting bursts grow
// arbitrarily wide.
type Pool struct {
	// Observer, when non-nil, is attached to every machine the pool
	// builds; set it before the first checkout.
	Observer Observer

	pl   *mapper.Placement
	opts Options

	mu    sync.Mutex
	free  []*Machine
	stats PoolStats

	maxIdle int
}

// DefaultPoolIdle is the default bound on a Pool's free list.
const DefaultPoolIdle = 64

// NewPool returns an empty pool building machines from pl with opts.
// maxIdle bounds the free list; maxIdle <= 0 uses DefaultPoolIdle.
func NewPool(pl *mapper.Placement, opts Options, maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = DefaultPoolIdle
	}
	return &Pool{pl: pl, opts: opts, maxIdle: maxIdle}
}

// GetContext checks a machine out of the pool, building one if the free
// list is empty. The machine comes back Reset (offset 0, start states
// enabled) and is exclusively the caller's until Put. When ctx carries a
// telemetry.ReqTrace, the checkout is recorded as a "lease" stage span
// (with whether it hit the free list or built cold) and the pool seam
// notes an injected lease refusal on the trace.
func (p *Pool) GetContext(ctx context.Context) (*Machine, error) {
	var one [1]*Machine
	err := p.lease(ctx, one[:]) // fills nothing when it fails
	return one[0], err
}

// GetNContext checks out n machines at once for a sharded run, recording
// one "lease" stage span on the trace carried by ctx. On error the
// machines acquired so far are returned to the pool.
func (p *Pool) GetNContext(ctx context.Context, n int) ([]*Machine, error) {
	ms := make([]*Machine, n)
	if err := p.lease(ctx, ms); err != nil {
		return nil, err
	}
	return ms, nil
}

// lease fills ms with checked-out machines under one "lease" stage span.
// The span's built attribute counts the cold builds of this checkout
// alone, however many other borrowers are building concurrently.
func (p *Pool) lease(ctx context.Context, ms []*Machine) error {
	rt := telemetry.ReqTraceFrom(ctx)
	sp := rt.StartStage("lease")
	defer sp.End()
	sp.SetAttr("machines", int64(len(ms)))
	var built int64
	for i := range ms {
		m, cold, err := p.get(rt)
		if err != nil {
			p.PutAll(ms[:i])
			return err
		}
		if cold {
			built++
		}
		ms[i] = m
	}
	sp.SetAttr("built", built)
	return nil
}

// get is the checkout core: one machine, and whether it was built cold.
// An injected refusal is noted on rt.
func (p *Pool) get(rt *telemetry.ReqTrace) (*Machine, bool, error) {
	// Lease-exhaustion injection point. Placed before any accounting so a
	// refused checkout leaves Gets == Puts — an injected failure must look
	// exactly like the pool never being asked.
	if err := faults.Check(rt, "machine.pool.get"); err != nil {
		return nil, false, fmt.Errorf("machine: lease refused: %w", err)
	}
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Hits++
		p.mu.Unlock()
		m.Reset()
		return m, false, nil
	}
	p.stats.Built++
	p.mu.Unlock()
	// Build outside the lock: machine construction programs every SRAM row
	// and switch table, and concurrent cold-start borrowers should not
	// serialize on it.
	m, err := New(p.pl, p.opts)
	if err == nil {
		m.Observer = p.Observer
	}
	return m, true, err
}

// Put returns a machine to the free list (dropped if the list is at its
// bound). Put(nil) is a no-op so deferred returns need no nil checks.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	p.stats.Puts++
	if len(p.free) < p.maxIdle {
		p.free = append(p.free, m)
	}
	p.mu.Unlock()
}

// PutAll returns a batch of machines.
func (p *Pool) PutAll(ms []*Machine) {
	for _, m := range ms {
		p.Put(m)
	}
}

// Stats returns a snapshot of the pool's checkout accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Idle = len(p.free)
	return s
}
