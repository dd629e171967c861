package machine

import (
	"context"
	"time"

	"cacheautomaton/internal/telemetry"
)

// ContextCheckBytes is the cancellation granularity of every scan:
// ctx.Err() is tested between sub-batches of this many symbols, so a
// canceled request stops within one sub-batch instead of scanning its
// whole input. 64 KiB costs one predictable branch per ~64k symbols —
// noise against the hot loop — while bounding the post-cancel overrun to
// well under a millisecond at host simulation speed.
const ContextCheckBytes = 64 << 10

// scan is the one chunked scan loop, under RunContext (and so RunBatch
// and CountContext), the shard workers and their repair pass: a ctx check
// and the symbol loop per ContextCheckBytes sub-batch, then the derived
// numbers of m.res brought up to where the loop stopped. A ctx that can
// never be canceled (Done() == nil) scans the input as a single
// sub-batch. On cancellation the machine keeps the position it reached.
//
// One switch picks the loop: mm, the run's configuration memo, when the
// run has one (see newMemo), or else the loop written for the machine's
// shape, which New fixed — the whole state in one word, one partition, or
// many. The three are the same rule — AND the symbol's row with the
// enabled vector, OR the matched slots' fan-out into next — and differ
// only in how much state the rule ranges over (TestKernelLoopsAgree).
func (m *Machine) scan(ctx context.Context, input []byte, mm *memo) error {
	step := len(input)
	if ctx.Done() != nil {
		step = ContextCheckBytes
	}
	var err error
	for len(input) > 0 {
		if err = ctx.Err(); err != nil {
			break
		}
		in := input[:min(step, len(input))]
		switch {
		case mm != nil:
			mm.run(in)
		case m.oneWord:
			m.runBatchWord(in)
		case len(m.parts) == 1:
			m.runBatch1(in)
		default:
			m.memoCounts.bypassed += int64(len(in))
			m.runBatchN(in)
		}
		input = input[len(in):]
	}
	m.derive(&m.res, m.basePos, m.baseBuf)
	return err
}

// RunContext processes the input and returns a snapshot of the
// accumulated result. The machine keeps its stream position, so
// consecutive runs continue the stream; call Reset to start over. On
// cancellation it returns the result accumulated so far together with
// ctx's error (Pos tells the caller exactly how much input was
// consumed), so a streaming caller loses no matches and a one-shot
// caller can simply discard the partial result.
//
// An Observer hears about the call's own symbols — the activity delta
// across it — so each feed of a stream reports its own chunk.
func (m *Machine) RunContext(ctx context.Context, input []byte) (*Result, error) {
	start, before, counts := m.began(), m.res, m.memoCounts
	err := m.scan(ctx, input, m.newMemo(len(input)))
	r := m.res
	m.observe(&before, &r, m.memoCounts.minus(counts), start)
	return &r, err
}

// CountContext is RunContext with match collection off for the call: one
// scan, with one memo, whose memory is O(1) in the match count.
func (m *Machine) CountContext(ctx context.Context, input []byte) (*Result, error) {
	defer func(collect bool) { m.opts.CollectMatches = collect }(m.opts.CollectMatches)
	m.opts.CollectMatches = false
	return m.RunContext(ctx, input)
}

// began reads the clock for observe, if anyone is observing.
func (m *Machine) began() (start time.Time) {
	if m.Observer != nil {
		start = time.Now()
	}
	return start
}

// observe is where numbers leave the kernel other than in a Result: it
// hands m's Observer what res accumulated since before (a zero Result
// for a run that started from Reset), what the run's memos did, and the
// host time since start.
func (m *Machine) observe(before, res *Result, memo memoCounts, start time.Time) {
	if m.Observer == nil {
		return
	}
	a, b := &res.Activity, &before.Activity
	m.Observer.ObserveRun(telemetry.RunSummary{
		Symbols:                a.Cycles - b.Cycles,
		Seconds:                time.Since(start).Seconds(),
		Matches:                res.MatchCount - before.MatchCount,
		OutputBufferInterrupts: res.OutputBufferInterrupts - before.OutputBufferInterrupts,
		OutputBufferPeak:       res.OutputBufferPeak,
		SumActiveStates:        a.SumActiveStates - b.SumActiveStates,
		SumDynamicStates:       a.SumDynamicStates - b.SumDynamicStates,
		SumActivePartitions:    a.SumActivePartitions - b.SumActivePartitions,
		SumG1Crossings:         a.SumG1Crossings - b.SumG1Crossings,
		SumG4Crossings:         a.SumG4Crossings - b.SumG4Crossings,
		MemoHits:               memo.hits,
		MemoMisses:             memo.misses,
		MemoFlushes:            memo.flushes,
		MemoBypassedSymbols:    memo.bypassed,
	})
}
