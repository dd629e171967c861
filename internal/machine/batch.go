package machine

import (
	"context"
	"fmt"
	"math/bits"
)

// laneCount is how many independent streams the lane-packed fast path
// drives at once: one stream per 64-bit word of the row arrays.
const laneCount = wordsPerPartition

// BatchResult is one stream's outcome from RunBatch. Err is set only
// when that stream alone failed (a panic recovered inside its
// sub-batch); its Result is then zero and the other streams are
// unaffected.
type BatchResult struct {
	Result
	Err error
}

// RunBatch scans every input independently from offset 0 through this
// one machine, as if each had been given a freshly Reset machine of its
// own, and returns one result per input in order. Results — match sets,
// offsets, activity statistics, FIFO and output-buffer accounting — are
// bit-identical to the per-input Reset+Run sequence.
//
// Two execution strategies share that contract. When the automaton's
// whole architectural state fits one 64-bit word (single partition, all
// used slots below 64), up to four streams ride the [256][4]uint64 row
// arrays word-wise, one stream per lane, so one pass over the rows
// serves four inputs. Otherwise the contract is executed as written:
// Reset, scan, take the result, one input after another
// (runBatchSequential).
//
// Inputs are strings so serving paths can hand request payloads down
// without materializing a byte-slice copy per request; the scan only
// ever reads them. The lane-packed path indexes the strings directly;
// the sequential path converts each stream as it reaches it (the symbol
// loop needs a byte slice, and one copy per multi-partition stream is
// the same cost callers previously paid up front).
//
// A canceled ctx abandons the whole batch and returns its error; the
// machine is Reset before returning on every path, so the caller can
// return it to a pool unconditionally.
func (m *Machine) RunBatch(ctx context.Context, inputs []string) ([]BatchResult, error) {
	out := make([]BatchResult, len(inputs))
	var err error
	if m.lanePacked {
		err = m.runBatchLanes(ctx, inputs, out)
	} else {
		err = m.runBatchSequential(ctx, inputs, out)
	}
	m.Reset()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runBatchLanes drives inputs through the single partition's row arrays
// in groups of laneCount, one stream per 64-bit word. Each lane
// reproduces runBatch1's per-symbol semantics exactly — activity sums,
// dead-lane early-out accounting, report order (ascending slot within a
// cycle), and output-buffer interrupts — but the row load rows[sym] is
// shared work only in the cache sense; what the lanes actually share is
// the sweep itself: one traversal of the symbol index serves four
// streams' bookkeeping and branch structure.
func (m *Machine) runBatchLanes(ctx context.Context, inputs []string, out []BatchResult) error {
	start := m.began()
	if m.opts.CollectMatches {
		// Pre-size each stream's match buffer: append growth from a nil
		// slice is the lane loop's dominant allocation cost otherwise.
		// Capacity is invisible in the result contract; a stream that ends
		// up empty is normalized back to nil below to stay bit-identical
		// with the per-input Reset+Run sequence.
		for i := range out {
			out[i].Result.Matches = make([]Match, 0, 32)
		}
	}
	for base := 0; base < len(inputs); base += laneCount {
		n := min(laneCount, len(inputs)-base)
		if err := m.runLaneGroup(ctx, inputs[base:base+n], out[base:base+n]); err != nil {
			return err
		}
	}
	for i := range out {
		if len(out[i].Result.Matches) == 0 {
			out[i].Result.Matches = nil
		}
		// Each lane is a stream from Reset. One summary per input, as the
		// sequential path's RunContext gives; the lanes share the sweep,
		// so they share its time.
		m.derive(&out[i].Result, 0, 0)
		m.observe(&Result{}, &out[i].Result, start, len(out))
	}
	return nil
}

// laneAcc is one lane's in-flight accumulators. sumActive and live
// (cycles with a non-empty enabled vector) are enough to reconstruct the
// activity block: SumActivePartitions = live, because the single
// partition is active on exactly the live cycles.
type laneAcc struct {
	e         uint64
	sumActive int
	maxActive int
	live      int
}

// runLaneGroup drives up to four streams through the partition's word-0
// row column in lockstep: the shared prefix (up to the shortest input)
// runs in one hand-unrolled loop with every lane's state in locals, and
// ragged tails drain one lane at a time through the scalar loop. Each
// lane reproduces runBatch1's per-symbol semantics exactly.
func (m *Machine) runLaneGroup(ctx context.Context, inputs []string, out []BatchResult) error {
	p := &m.parts[0]
	a0 := p.always[0]
	r0 := p.reports[0]
	start0 := p.always[0] | p.startOfData[0]
	rows := p.rows
	localRows := p.localRows
	shiftM, selfM, otherM := m.laneShift, m.laneSelf, m.laneOther

	rareM := r0 | otherM

	// The lockstep loop runs only for full groups of a partition with
	// always-on starts: e then never goes empty (e' = nx | a0 >= a0), so
	// the dead-lane guard and the per-cycle live counter both vanish —
	// every lockstep cycle is live by construction. Anything else (ragged
	// tails, under-filled final groups, anchored-only rule sets whose
	// lanes can die) drains through the scalar loop, which keeps the
	// guard.
	var acc [laneCount]laneAcc
	minLen := 0
	if len(inputs) == laneCount && p.hasAlways {
		minLen = len(inputs[0])
		for _, in := range inputs[1:] {
			if len(in) < minLen {
				minLen = len(in)
			}
		}
	}
	for l := range acc {
		acc[l].e = start0
	}

	var in0, in1, in2, in3 string
	if minLen > 0 {
		in0, in1, in2, in3 = inputs[0][:minLen], inputs[1][:minLen], inputs[2][:minLen], inputs[3][:minLen]
	}
	e0, e1, e2, e3 := start0, start0, start0, start0
	sa0, sa1, sa2, sa3 := 0, 0, 0, 0
	mx0, mx1, mx2, mx3 := 0, 0, 0, 0

	canCancel := ctx.Done() != nil
	for cs := 0; cs < minLen; cs += ContextCheckBytes {
		if canCancel {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ce := cs + ContextCheckBytes
		if ce > minLen {
			ce = minLen
		}
		for i := cs; i < ce; i++ {
			{
				cnt := bits.OnesCount64(e0)
				sa0 += cnt
				if cnt > mx0 {
					mx0 = cnt
				}
				mm := rows[in0[i]][0] & e0
				nx := ((mm & shiftM) << 1) | (mm & selfM)
				if mm&rareM != 0 {
					if rb := mm & r0; rb != 0 {
						m.laneReport(&out[0].Result, p, rb, int64(i))
					}
					for om := mm & otherM; om != 0; om &= om - 1 {
						nx |= localRows[bits.TrailingZeros64(om)][0]
					}
				}
				e0 = nx | a0
			}
			{
				cnt := bits.OnesCount64(e1)
				sa1 += cnt
				if cnt > mx1 {
					mx1 = cnt
				}
				mm := rows[in1[i]][0] & e1
				nx := ((mm & shiftM) << 1) | (mm & selfM)
				if mm&rareM != 0 {
					if rb := mm & r0; rb != 0 {
						m.laneReport(&out[1].Result, p, rb, int64(i))
					}
					for om := mm & otherM; om != 0; om &= om - 1 {
						nx |= localRows[bits.TrailingZeros64(om)][0]
					}
				}
				e1 = nx | a0
			}
			{
				cnt := bits.OnesCount64(e2)
				sa2 += cnt
				if cnt > mx2 {
					mx2 = cnt
				}
				mm := rows[in2[i]][0] & e2
				nx := ((mm & shiftM) << 1) | (mm & selfM)
				if mm&rareM != 0 {
					if rb := mm & r0; rb != 0 {
						m.laneReport(&out[2].Result, p, rb, int64(i))
					}
					for om := mm & otherM; om != 0; om &= om - 1 {
						nx |= localRows[bits.TrailingZeros64(om)][0]
					}
				}
				e2 = nx | a0
			}
			{
				cnt := bits.OnesCount64(e3)
				sa3 += cnt
				if cnt > mx3 {
					mx3 = cnt
				}
				mm := rows[in3[i]][0] & e3
				nx := ((mm & shiftM) << 1) | (mm & selfM)
				if mm&rareM != 0 {
					if rb := mm & r0; rb != 0 {
						m.laneReport(&out[3].Result, p, rb, int64(i))
					}
					for om := mm & otherM; om != 0; om &= om - 1 {
						nx |= localRows[bits.TrailingZeros64(om)][0]
					}
				}
				e3 = nx | a0
			}
		}
	}
	acc[0].e, acc[0].sumActive, acc[0].maxActive, acc[0].live = e0, sa0, mx0, minLen
	acc[1].e, acc[1].sumActive, acc[1].maxActive, acc[1].live = e1, sa1, mx1, minLen
	acc[2].e, acc[2].sumActive, acc[2].maxActive, acc[2].live = e2, sa2, mx2, minLen
	acc[3].e, acc[3].sumActive, acc[3].maxActive, acc[3].live = e3, sa3, mx3, minLen

	for l := range inputs {
		in := inputs[l]
		if minLen < len(in) {
			if err := m.runLaneScalar(ctx, in, minLen, &acc[l], &out[l].Result); err != nil {
				return err
			}
		}
		res := &out[l].Result
		a := &acc[l]
		n := int64(len(in))
		res.Activity.Cycles = n
		res.Activity.SumActiveStates = int64(a.sumActive)
		res.Activity.SumActivePartitions = int64(a.live)
		res.Activity.MaxActiveStates = int64(a.maxActive)
		if a.live > 0 {
			res.Activity.MaxActivePartitions = 1
		}
	}
	return nil
}

// runLaneScalar advances one lane alone over in[from:] — the tail of a
// ragged group, or a whole stream in an under-filled final group.
func (m *Machine) runLaneScalar(ctx context.Context, in string, from int, a *laneAcc, res *Result) error {
	p := &m.parts[0]
	a0 := p.always[0]
	r0 := p.reports[0]
	rows := p.rows
	localRows := p.localRows
	shiftM, selfM, otherM := m.laneShift, m.laneSelf, m.laneOther
	e := a.e
	canCancel := ctx.Done() != nil
	for cs := from; cs < len(in); cs += ContextCheckBytes {
		if canCancel {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ce := cs + ContextCheckBytes
		if ce > len(in) {
			ce = len(in)
		}
		for i := cs; i < ce; i++ {
			if e == 0 {
				// Dead lane: the rest of the stream contributes cycles but
				// no activity — runBatch1's early-out.
				break
			}
			cnt := bits.OnesCount64(e)
			a.sumActive += cnt
			if cnt > a.maxActive {
				a.maxActive = cnt
			}
			a.live++
			mm := rows[in[i]][0] & e
			nx := ((mm & shiftM) << 1) | (mm & selfM)
			if rb := mm & r0; rb != 0 {
				m.laneReport(res, p, rb, int64(i))
			}
			for om := mm & otherM; om != 0; om &= om - 1 {
				nx |= localRows[bits.TrailingZeros64(om)][0]
			}
			e = nx | a0
		}
		if e == 0 {
			break
		}
	}
	a.e = e
	return nil
}

// laneReport is the rare reporting path of one lane's cycle: reportTo
// on the single partition's word 0, with the lane's private Result.
func (m *Machine) laneReport(res *Result, p *partition, rb uint64, off int64) {
	m.reportTo(res, p, 0, [wordsPerPartition]uint64{rb}, off)
}

// runBatchSequential is the batch contract spelled out: every input gets
// a Reset machine and one guarded scan.
func (m *Machine) runBatchSequential(ctx context.Context, inputs []string, out []BatchResult) error {
	for i, in := range inputs {
		m.Reset()
		if err := m.runStream(ctx, []byte(in), &out[i]); err != nil {
			return err
		}
	}
	return nil
}

// runStream is RunContext into out with a panic anywhere under the hot
// loop converted into that stream's error: the next stream's Reset
// rebuilds everything the loop derives (active lists, next vectors), so
// the other streams never see the wreckage. Only ctx's error — which
// abandons the whole batch — is returned.
func (m *Machine) runStream(ctx context.Context, input []byte, out *BatchResult) error {
	defer func() {
		if r := recover(); r != nil {
			*out = BatchResult{Err: fmt.Errorf("machine: batch stream panic: %v", r)}
		}
	}()
	res, err := m.RunContext(ctx, input)
	out.Result = *res
	return err
}
