// Package sched models the system-integration story of paper §2.9: NFA
// jobs share the last-level cache with each other under a power budget.
// "Since NFA computation has high peak power requirements for some
// benchmarks, the OS scheduler together with the power governor must
// ensure that the system TDP is not exceeded ... the compiler can provide
// coarse-grained peak-power estimates (hints) to guide OS scheduling. In
// case the OS wishes to schedule a higher-priority process, the NFA
// process may also be suspended and later resumed by recording the number
// of input symbols processed and the active state vector to memory."
//
// The scheduler admits the highest-priority jobs whose summed peak-power
// hints fit the TDP budget and whose mappings fit the available ways;
// preempted jobs are suspended through the machine's architectural
// snapshot and resumed later, so matches spanning preemption points are
// preserved.
package sched

import (
	"context"
	"fmt"
	"sort"

	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
)

// Job is one NFA workload: a compiled placement plus its input stream.
type Job struct {
	// ID names the job in results.
	ID string
	// Placement is the compiled automaton.
	Placement *mapper.Placement
	// Input is the stream to process.
	Input []byte
	// Priority: higher values are scheduled first.
	Priority int

	m        *machine.Machine
	consumed int
	matches  int64
	// sinceRestore tracks the machine's internal match counter, which
	// resets on Restore (statistics are not architectural state).
	sinceRestore int64
	suspends     int
	lastRan      int64
}

// Config describes the machine the jobs share.
type Config struct {
	// Slices is the number of LLC slices (8-16 on the modeled Xeons).
	Slices int
	// NFAWaysPerSlice is how many ways per slice may hold NFA state
	// (§2.9: 4-8, the rest stays regular cache).
	NFAWaysPerSlice int
	// TDPWatts is the power budget for NFA work (§5.3 discusses the 160 W
	// processor TDP).
	TDPWatts float64
	// QuantumBytes is the preemption granularity (default 4096).
	QuantumBytes int
}

func (c Config) quantum() int {
	if c.QuantumBytes <= 0 {
		return 4096
	}
	return c.QuantumBytes
}

func (c Config) totalWays() int { return c.Slices * c.NFAWaysPerSlice }

// Result summarizes one completed job.
type Result struct {
	ID string
	// Matches found over the whole stream (preemption-transparent).
	Matches int64
	// Suspensions counts preemptions.
	Suspensions int
	// CompletedAtSymbols is the scheduler timeline position (total symbols
	// across the run's quanta) when the job finished.
	CompletedAtSymbols int64
}

// Scheduler runs submitted jobs to completion.
type Scheduler struct {
	cfg  Config
	jobs []*Job
}

// New returns a scheduler for the machine config.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Slices <= 0 || cfg.NFAWaysPerSlice <= 0 || cfg.TDPWatts <= 0 {
		return nil, fmt.Errorf("sched: invalid config %+v", cfg)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Submit queues a job, rejecting jobs that could never run: mappings
// bigger than the machine or hotter than the whole budget.
func (s *Scheduler) Submit(j *Job) error {
	if j.Placement == nil || len(j.Input) == 0 {
		return fmt.Errorf("sched: job %q needs a placement and input", j.ID)
	}
	if ways := j.Placement.WaysUsed(); ways > s.cfg.totalWays() {
		return fmt.Errorf("sched: job %q needs %d ways, machine has %d", j.ID, ways, s.cfg.totalWays())
	}
	if p := j.Placement.PeakPowerHintW(); p > s.cfg.TDPWatts {
		return fmt.Errorf("sched: job %q peak power hint %.1fW exceeds TDP %.1fW", j.ID, p, s.cfg.TDPWatts)
	}
	m, err := machine.New(j.Placement, machine.Options{})
	if err != nil {
		return err
	}
	j.m = m
	s.jobs = append(s.jobs, j)
	return nil
}

// Run executes all submitted jobs to completion and returns their results
// in completion order.
func (s *Scheduler) Run() []Result {
	// The simulated timeline has no caller that could cancel it.
	ctx := context.Background()
	var timeline int64
	var done []Result
	pending := append([]*Job(nil), s.jobs...)
	// Suspended state blobs for jobs not currently admitted.
	suspended := map[*Job]*machine.Snapshot{}
	running := map[*Job]bool{}

	for len(pending) > 0 {
		// Admission: by priority (then submission order), pack jobs while
		// power and way budgets hold — the greedy policy an OS governor
		// hint interface supports.
		// Equal-priority jobs rotate round-robin (least recently run
		// first) so the budget is time-sliced rather than starving later
		// submissions.
		order := append([]*Job(nil), pending...)
		sort.SliceStable(order, func(a, b int) bool {
			if order[a].Priority != order[b].Priority {
				return order[a].Priority > order[b].Priority
			}
			return order[a].lastRan < order[b].lastRan
		})
		var admitted []*Job
		power, ways := 0.0, 0
		for _, j := range order {
			jp := j.Placement.PeakPowerHintW()
			jw := j.Placement.WaysUsed()
			if power+jp <= s.cfg.TDPWatts && ways+jw <= s.cfg.totalWays() {
				admitted = append(admitted, j)
				power += jp
				ways += jw
			}
		}
		if len(admitted) == 0 {
			admitted = order[:1] // always make progress
		}
		// Suspend newly-preempted, resume newly-admitted.
		admittedSet := map[*Job]bool{}
		for _, j := range admitted {
			admittedSet[j] = true
		}
		for j := range running {
			if !admittedSet[j] {
				suspended[j] = j.m.Snapshot()
				j.suspends++
				delete(running, j)
			}
		}
		for _, j := range admitted {
			if !running[j] {
				if snap, ok := suspended[j]; ok {
					_ = j.m.Restore(snap)
					delete(suspended, j)
					j.sinceRestore = 0
				}
				running[j] = true
			}
		}
		// Run one quantum for each admitted job.
		var still []*Job
		maxChunk := 0
		for _, j := range pending {
			if !admittedSet[j] {
				still = append(still, j)
				continue
			}
			chunk := s.cfg.quantum()
			if rem := len(j.Input) - j.consumed; chunk > rem {
				chunk = rem
			}
			res, _ := j.m.RunContext(ctx, j.Input[j.consumed:j.consumed+chunk])
			j.consumed += chunk
			j.lastRan = timeline + 1
			j.matches += res.MatchCount - j.sinceRestore
			j.sinceRestore = res.MatchCount
			if chunk > maxChunk {
				maxChunk = chunk
			}
			if j.consumed >= len(j.Input) {
				done = append(done, Result{
					ID:                 j.ID,
					Matches:            j.matches,
					Suspensions:        j.suspends,
					CompletedAtSymbols: timeline + int64(chunk),
				})
				delete(running, j)
			} else {
				still = append(still, j)
			}
		}
		timeline += int64(maxChunk)
		pending = still
	}
	return done
}
