package machine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// DefaultShardOverlap is the speculative warm-up prefix, in symbols, that
// each non-first shard re-scans before its own range. A shard other than
// the first cannot know the true active-state vector at its start offset
// without running everything before it, so it speculates: start from the
// idle state (only always-on start states enabled) a little early and let
// the automaton converge while scanning the warm-up bytes. Runs whose
// active state has longer memory than the overlap (e.g. `a.*b` holding a
// bit set indefinitely) are caught by the repair pass in
// RunShardedContext, so the overlap length only affects speed, never
// correctness.
const DefaultShardOverlap = 2048

// minShardBytes is the smallest shard worth the warm-up cost; inputs
// shorter than two of these run sequentially.
const minShardBytes = 4 * DefaultShardOverlap

// ShardsFor returns how many of the requested shards RunShardedContext
// would actually use for an input of the given length.
func ShardsFor(requested, inputLen int) int {
	return max(1, min(requested, inputLen/minShardBytes))
}

// RunShardedContext resets the machines and scans input from offset 0,
// split into len(ms) contiguous shards executed concurrently — the software
// analogue of the paper's §3.4 input-stream replication across C-BOXes,
// with the stream divided instead of duplicated. All machines must share
// one placement. The returned Result is bit-identical to a sequential
// ms[0].Reset(); ms[0].RunContext(ctx, input):
//
//   - Shard i>0 speculatively warms up from the idle state over the
//     DefaultShardOverlap bytes preceding its range, then snapshots the
//     architectural state it assumed at its start offset.
//   - A sequential repair pass compares each shard's assumed start state
//     with its predecessor's actual end state and re-runs the shard from
//     the true state on mismatch. State evolution depends only on the
//     enabled vectors and the input bytes, so matching vectors guarantee
//     identical per-cycle behavior.
//   - Matches concatenate in shard order (= ascending offsets = sequential
//     order), activity statistics sum (peaks take the max), and derive
//     fills the rest from the merged totals exactly as it does for a
//     sequential run from offset 0.
//
// ms[0]'s Observer hears about the merged result, once; the shard workers
// (whose warm-up and mis-speculated cycles are not the run's) report
// nothing.
//
// Each shard worker checks ctx at ContextCheckBytes granularity (a
// canceled request stops all shards within one sub-batch) and recovers its
// own panics, so a fault in one worker surfaces as an error from this call
// instead of killing the process. The machines are safe to return to
// their pool after any failure — the pool resets them before reuse.
func RunShardedContext(ctx context.Context, ms []*Machine, input []byte) (*Result, error) {
	if len(ms) == 0 {
		return nil, errors.New("machine: RunShardedContext needs at least one machine")
	}
	for _, m := range ms[1:] {
		if m.pl != ms[0].pl {
			return nil, errors.New("machine: RunShardedContext machines must share one placement")
		}
	}
	n := ShardsFor(len(ms), len(input))
	if n <= 1 {
		ms[0].Reset()
		return ms[0].RunContext(ctx, input)
	}
	start := ms[0].began()

	bounds := make([]int, n+1)
	for i := 0; i <= n; i++ {
		bounds[i] = i * len(input) / n
	}
	results := make([]Result, n)
	assumed := make([]*Snapshot, n) // speculated state at shard start
	endSt := make([]*Snapshot, n)   // state at shard end
	errs := make([]error, n)
	// Each worker's configuration memo serves its warm-up, its range and
	// its repair: one run each. What they did is counted on their machines,
	// and its sum is observed.
	memos := make([]*memo, n)
	var before memoCounts
	for _, m := range ms[:n] {
		before = before.plus(m.memoCounts)
	}

	// Restore re-asserts the always-on start mask, so an all-zero snapshot
	// is the idle state: only the always-on start states enabled
	// (startOfData states matter only at offset 0, which Reset handles).
	idle := make([][wordsPerPartition]uint64, ms[0].NumPartitions())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Panic isolation: a worker panic (a bug, or an injected
			// fault drill) must not take down the process; it becomes an
			// error result for this run only.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("machine: shard %d worker panic: %v", i, r)
				}
			}()
			if errs[i] = faults.Check(telemetry.ReqTraceFrom(ctx), "machine.shard.worker"); errs[i] != nil {
				return
			}
			m := ms[i]
			warm := bounds[i]
			if i > 0 {
				warm = max(bounds[i]-DefaultShardOverlap, 0)
			}
			mm := m.newMemo(bounds[i+1] - warm)
			memos[i] = mm
			if i == 0 {
				m.Reset()
				assumed[i] = m.Snapshot()
			} else {
				idleAt := &Snapshot{Pos: int64(warm), Enabled: idle}
				if _, assumed[i], errs[i] = m.scanFrom(ctx, idleAt, input[warm:bounds[i]], mm); errs[i] != nil {
					return
				}
			}
			results[i], endSt[i], errs[i] = m.scanFrom(ctx, assumed[i], input[bounds[i]:bounds[i+1]], mm)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Repair pass: wherever speculation missed (including misses cascading
	// from an earlier repair), re-run the shard from the true predecessor
	// end state. Worst case this re-does each shard once — bounded at ~2×
	// the sequential work — and it is what makes the result exact.
	for i := 1; i < n; i++ {
		if slices.Equal(assumed[i].Enabled, endSt[i-1].Enabled) {
			continue
		}
		var err error
		results[i], endSt[i], err = ms[i].scanFrom(ctx, endSt[i-1], input[bounds[i]:bounds[i+1]], memos[i])
		if err != nil {
			return nil, err
		}
	}

	out := &Result{}
	for i := range results {
		out.MatchCount += results[i].MatchCount
		out.Matches = append(out.Matches, results[i].Matches...)
		out.Activity.merge(&results[i].Activity)
	}
	ms[0].derive(out, 0, 0)
	var after memoCounts
	for _, m := range ms[:n] {
		after = after.plus(m.memoCounts)
	}
	ms[0].observe(&Result{}, out, after.minus(before), start)
	return out, nil
}

// scanFrom re-seats the machine on the given architectural state — with
// fresh accumulators: Restore drops whatever a warm-up or a mis-speculated
// first attempt collected — scans input through the worker's memo mm, and
// returns what that range produced together with the state it ended in.
func (m *Machine) scanFrom(ctx context.Context, from *Snapshot, input []byte, mm *memo) (Result, *Snapshot, error) {
	if err := m.Restore(from); err != nil {
		return Result{}, nil, err
	}
	if err := m.scan(ctx, input, mm); err != nil {
		return Result{}, nil, err
	}
	res := m.res
	m.res = Result{} // an idle pooled machine must not pin the shard's matches
	return res, m.Snapshot(), nil
}
