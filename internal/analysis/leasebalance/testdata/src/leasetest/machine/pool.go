// Package machine mirrors the real lease pool's API shape: what
// leasebalance keys on is the type name Pool and the GetContext/
// GetNContext/Put/PutAll method names.
package machine

import (
	"context"
	"sync"
)

type Machine struct{}

func (m *Machine) RunContext(ctx context.Context, input []byte) {}

type Pool struct {
	mu   sync.Mutex
	free []*Machine
}

func (p *Pool) GetContext(ctx context.Context) (*Machine, error) { return &Machine{}, nil }
func (p *Pool) GetNContext(ctx context.Context, n int) ([]*Machine, error) {
	return make([]*Machine, n), nil
}
func (p *Pool) Put(m *Machine)       {}
func (p *Pool) PutAll(ms []*Machine) {}
