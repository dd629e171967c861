package use

import (
	"context"

	"example.com/leasetest/machine"
)

// Leak takes a lease, runs it, and forgets it: the machine never goes
// back to the free list.
func Leak(ctx context.Context, p *machine.Pool) {
	m, _ := p.GetContext(ctx) // want "never returned"
	m.RunContext(ctx, nil)
}

// Drop discards the lease at the call site.
func Drop(ctx context.Context, p *machine.Pool) {
	p.GetContext(ctx) // want "never returned"
}

// Blank leaks through the blank identifier.
func Blank(ctx context.Context, p *machine.Pool) {
	_, _ = p.GetContext(ctx) // want "never returned"
}

// Balanced is the canonical shape; no finding.
func Balanced(ctx context.Context, p *machine.Pool) error {
	m, err := p.GetContext(ctx)
	if err != nil {
		return err
	}
	defer p.Put(m)
	m.RunContext(ctx, nil)
	return nil
}

// BalancedN returns a batch with PutAll; no finding.
func BalancedN(ctx context.Context, p *machine.Pool) error {
	ms, err := p.GetNContext(ctx, 3)
	if err != nil {
		return err
	}
	defer p.PutAll(ms)
	return nil
}

// Escapes hands the lease to the caller, who owns it now; no finding.
func Escapes(ctx context.Context, p *machine.Pool) (*machine.Machine, error) {
	return p.GetContext(ctx)
}

func EscapesVar(ctx context.Context, p *machine.Pool) *machine.Machine {
	m, _ := p.GetContext(ctx)
	return m
}

type stream struct {
	m *machine.Machine
}

// Stored parks the lease in a long-lived struct; its Close path owns
// the Put. No finding.
func Stored(ctx context.Context, p *machine.Pool) *stream {
	m, _ := p.GetContext(ctx)
	return &stream{m: m}
}

// Captured defers the Put through a closure; no finding.
func Captured(ctx context.Context, p *machine.Pool) {
	m, _ := p.GetContext(ctx)
	defer func() { p.Put(m) }()
	m.RunContext(ctx, nil)
}

// Intentional leaks on purpose, with a justified suppression.
func Intentional(ctx context.Context, p *machine.Pool) {
	//cavet:ignore leasebalance fixture: the leak is this test's subject
	m, _ := p.GetContext(ctx)
	m.RunContext(ctx, nil)
}
