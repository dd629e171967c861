package machine

import (
	"context"
	"fmt"
)

// BatchResult is one stream's outcome from RunBatch. Err is set only
// when that stream alone failed (a panic recovered inside its scan); its
// Result is then zero and the other streams are unaffected.
type BatchResult struct {
	Result
	Err error
}

// RunBatch scans every input independently from offset 0 through this
// one machine and returns one result per input in order. It is the
// contract executed as written — Reset, one guarded scan, take the
// result, one input after another — so results are those of the
// per-input Reset+RunContext sequence by construction, and an Observer
// hears one summary per input. What a batch shares is the machine: one
// lease and one warm set of rows serve every input. Each stream is its
// own run with its own configuration memo (see newMemo), so a batch of
// short streams runs on the kernel however long the batch.
//
// Inputs are strings so serving paths can hand request payloads down
// without materializing a byte-slice copy per request up front; each
// stream is converted as the scan reaches it (the symbol loop needs a
// byte slice).
//
// A canceled ctx abandons the whole batch and returns its error; the
// machine is Reset before returning on every path, so the caller can
// return it to a pool unconditionally.
func (m *Machine) RunBatch(ctx context.Context, inputs []string) ([]BatchResult, error) {
	defer m.Reset()
	out := make([]BatchResult, len(inputs))
	for i, in := range inputs {
		m.Reset()
		if err := m.runStream(ctx, []byte(in), &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
