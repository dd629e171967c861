package machine

import "context"

// RunBatch scans every input independently from offset 0 through this
// one machine and returns one result per input in order: Reset and
// RunContext per input, so results are those of the per-input
// Reset+RunContext sequence by construction, and an Observer hears one
// summary per input. Each input is its own run with its own
// configuration memo (see newMemo), so a batch of short inputs runs on
// the kernel however long the batch. Its callers are the ledger's lanes
// and interleaved rows; a coalesced /match runs each input through
// Automaton.RunContext, as a lone request does.
//
// A canceled ctx abandons the whole batch and returns its error; the
// machine is Reset before returning on every path, so the caller can
// return it to a pool unconditionally.
func (m *Machine) RunBatch(ctx context.Context, inputs []string) ([]Result, error) {
	defer m.Reset()
	out := make([]Result, len(inputs))
	for i, in := range inputs {
		m.Reset()
		res, err := m.RunContext(ctx, []byte(in))
		if err != nil {
			return nil, err
		}
		out[i] = *res
	}
	return out, nil
}
