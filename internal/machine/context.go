package machine

import (
	"context"
	"time"
)

// ContextCheckBytes is the cancellation granularity of every scan:
// ctx.Err() is tested between sub-batches of this many symbols, so a
// canceled request stops within one sub-batch instead of scanning its
// whole input. 64 KiB costs one predictable branch per ~64k symbols —
// noise against the hot loop — while bounding the post-cancel overrun to
// well under a millisecond at host simulation speed.
const ContextCheckBytes = 64 << 10

// scan is the one chunked scan loop, under RunContext, the shard workers
// and their repair pass, and the sequential batch fallback: a ctx check,
// the FIFO refill accounting and the symbol loop per ContextCheckBytes
// sub-batch. A ctx that can never be canceled (Done() == nil) scans the
// input as a single sub-batch. On cancellation the machine keeps the
// position it reached.
func (m *Machine) scan(ctx context.Context, input []byte) error {
	step := len(input)
	if ctx.Done() != nil {
		step = ContextCheckBytes
	}
	for len(input) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(step, len(input))
		m.accountRefills(input[:n])
		m.runBatch(input[:n])
		input = input[n:]
	}
	return nil
}

// RunContext processes the input and returns a snapshot of the
// accumulated result. The machine keeps its stream position, so
// consecutive runs continue the stream; call Reset to start over. On
// cancellation it returns the result accumulated so far together with
// ctx's error (Pos tells the caller exactly how much input was
// consumed), so a streaming caller loses no matches and a one-shot
// caller can simply discard the partial result.
func (m *Machine) RunContext(ctx context.Context, input []byte) (*Result, error) {
	var start time.Time
	if m.opts.Observer != nil {
		start = time.Now()
	}
	from := m.pos
	err := m.scan(ctx, input)
	if m.opts.Observer != nil {
		m.opts.Observer.ObserveRun(m.pos-from, time.Since(start).Seconds(),
			m.res.OutputBufferPeak)
	}
	r := m.res
	return &r, err
}
