// Package faults is a deterministic, stdlib-only fault-injection
// framework for the serving stack. Code under test declares named
// injection points at its failure seams — faults.Check("server.feed")
// before a stream mutation, faults.Check("wal.append") before a WAL
// write — and a chaos harness (or an operator experiment) enables an
// Injector that turns a seeded, reproducible fraction of those calls
// into injected I/O errors, delays, or panics.
//
// Cost when disabled — the production configuration — is one atomic
// pointer load and a nil compare per Check call: no map lookup, no
// hashing, no allocation. The injector is process-global because the
// seams it serves thread through packages (machine, server, cad) that
// share no configuration plumbing; Enable/Disable are test-scoped.
//
// Determinism: whether the i-th Check at a given point fires, and which
// fault kind it fires as, is a pure function of (seed, point name, i).
// Concurrency only affects which caller draws which index, so a seeded
// chaos run injects a reproducible fault mix even though goroutine
// interleaving varies. Decisions never depend on time or global rand.
//
// Placement discipline (see DESIGN.md): a point must sit BEFORE the
// state mutation it guards, so that an injected failure leaves the
// system exactly as if the operation was never attempted — which is
// what makes injected errors safely retryable and lets the chaos
// harness demand bit-identical results under faults.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a bitmask of fault behaviors a point may inject.
type Kind uint8

const (
	// KindError makes Check return an *Error.
	KindError Kind = 1 << iota
	// KindDelay makes Check sleep a deterministic duration, then succeed.
	KindDelay
	// KindPanic makes Check panic with a *Panic value.
	KindPanic
)

// Rule configures one injection point.
type Rule struct {
	// Rate is the probability in [0,1] that a Check at this point fires.
	Rate float64
	// Kinds is the set of behaviors to draw from (defaults to KindError).
	Kinds Kind
	// MaxDelay bounds KindDelay sleeps (default 2ms). The drawn delay is
	// deterministic per call index.
	MaxDelay time.Duration
}

// Error is an injected I/O-style error. Callers distinguish injected
// faults from organic ones with errors.As / IsInjected.
type Error struct {
	// Point is the injection point that fired.
	Point string
	// Index is the point-local call index that drew the fault.
	Index uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("injected fault at %s (call %d)", e.Point, e.Index)
}

// Panic is the value an injected panic carries, so recovery layers can
// tell a drill from a real bug.
type Panic struct {
	Point string
	Index uint64
}

func (p *Panic) String() string {
	return fmt.Sprintf("injected panic at %s (call %d)", p.Point, p.Index)
}

// PointStats counts one point's activity.
type PointStats struct {
	// Checks is how many times the point was evaluated.
	Checks uint64
	// Errors, Delays and Panics count fired faults by kind.
	Errors, Delays, Panics uint64
}

// pointState is the per-point runtime: a call counter and fired-fault
// tallies, all atomic (points are hit from many goroutines).
type pointState struct {
	rule   Rule
	hash   uint64 // precomputed FNV of the point name
	calls  atomic.Uint64
	errors atomic.Uint64
	delays atomic.Uint64
	panics atomic.Uint64
}

// Injector is one seeded fault plan over a set of points. Points not in
// the plan never fire. An Injector is safe for concurrent use.
type Injector struct {
	seed   int64
	points map[string]*pointState

	mu      sync.Mutex
	unknown map[string]uint64 // Checks at points the plan doesn't cover
}

// NewInjector builds an injector firing per rules, deterministically
// under seed.
func NewInjector(seed int64, rules map[string]Rule) *Injector {
	in := &Injector{
		seed:    seed,
		points:  make(map[string]*pointState, len(rules)),
		unknown: make(map[string]uint64),
	}
	for name, r := range rules {
		if r.Kinds == 0 {
			r.Kinds = KindError
		}
		if r.MaxDelay <= 0 {
			r.MaxDelay = 2 * time.Millisecond
		}
		in.points[name] = &pointState{rule: r, hash: fnv64(name)}
	}
	return in
}

// Stats snapshots every configured point's counters, keyed by point name.
func (in *Injector) Stats() map[string]PointStats {
	out := make(map[string]PointStats, len(in.points))
	for name, ps := range in.points {
		out[name] = PointStats{
			Checks: ps.calls.Load(),
			Errors: ps.errors.Load(),
			Delays: ps.delays.Load(),
			Panics: ps.panics.Load(),
		}
	}
	return out
}

// Seen lists every point name Check was called with while this injector
// was enabled, including points the plan does not cover — the chaos
// harness uses it to prove the seams it expects actually exist.
func (in *Injector) Seen() []string {
	seen := make(map[string]bool, len(in.points))
	for name, ps := range in.points {
		if ps.calls.Load() > 0 {
			seen[name] = true
		}
	}
	in.mu.Lock()
	for name := range in.unknown {
		seen[name] = true
	}
	in.mu.Unlock()
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	return out
}

// active is the process-global injector; nil means disabled and makes
// Check a two-instruction no-op.
var active atomic.Pointer[Injector]

// Enable installs in as the process-global injector (nil disables).
func Enable(in *Injector) { active.Store(in) }

// Disable removes the active injector; subsequent Checks are no-ops.
func Disable() { active.Store(nil) }

// Check evaluates the named injection point: with no injector enabled it
// returns nil at the cost of one atomic load; with an injector it may
// return an injected *Error, sleep, or panic with a *Panic, per the
// point's Rule and the deterministic (seed, point, index) draw.
func Check(point string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.check(point)
}

func (in *Injector) check(point string) error {
	ps, ok := in.points[point]
	if !ok {
		in.mu.Lock()
		in.unknown[point]++
		in.mu.Unlock()
		return nil
	}
	idx := ps.calls.Add(1) - 1
	// Two independent deterministic draws: fire? and which kind/how long?
	h := splitmix64(uint64(in.seed) ^ ps.hash ^ (idx * 0x9e3779b97f4a7c15))
	if ps.rule.Rate < 1 && float64(h>>11)/(1<<53) >= ps.rule.Rate {
		return nil
	}
	h2 := splitmix64(h)
	kinds := kindList(ps.rule.Kinds)
	switch kinds[h2%uint64(len(kinds))] {
	case KindDelay:
		ps.delays.Add(1)
		d := time.Duration(splitmix64(h2) % uint64(ps.rule.MaxDelay))
		time.Sleep(d)
		return nil
	case KindPanic:
		ps.panics.Add(1)
		panic(&Panic{Point: point, Index: idx})
	default:
		ps.errors.Add(1)
		return &Error{Point: point, Index: idx}
	}
}

// kindList expands a Kind bitmask into its set bits, in a fixed order so
// the kind draw is deterministic.
func kindList(k Kind) []Kind {
	out := make([]Kind, 0, 3)
	for _, one := range []Kind{KindError, KindDelay, KindPanic} {
		if k&one != 0 {
			out = append(out, one)
		}
	}
	if len(out) == 0 {
		out = append(out, KindError)
	}
	return out
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// fnv64 is FNV-1a over s (inlined to keep the package dependency-free).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 mixer — a full-avalanche bijection, so
// consecutive indexes draw statistically independent decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
