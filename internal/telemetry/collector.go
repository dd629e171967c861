package telemetry

// RunSummary is what one run hands its observer, cut from the
// machine.Result the run produced anyway: the symbols it consumed, the
// host time it took, and what the kernel counted over them. A stream feed
// reports its own chunk, a sharded run its merged result, a batch one
// summary per input. It is a plain struct so this package stays a leaf.
type RunSummary struct {
	// Symbols is the number of input symbols (= cycles) of the run.
	Symbols int64
	// Seconds is the host wall time.
	Seconds float64
	// Matches and OutputBufferInterrupts count report events and 64-entry
	// output-buffer fills (§2.8); OutputBufferPeak is the buffer's
	// high-water mark.
	Matches, OutputBufferInterrupts, OutputBufferPeak int64
	// The Sum fields are machine.ActivityStats' per-cycle totals over the
	// run's symbols (the paper's Fig. 9/10 signals).
	SumActiveStates, SumDynamicStates, SumActivePartitions int64
	SumG1Crossings, SumG4Crossings                         int64
	// The Memo fields say what the run's configuration memo did: the
	// lookups that found their step, the lookups that ran the kernel, the
	// times its table was flushed whole, and the symbols the kernel ran
	// without it (a run too short for it, or one the back-off rule sent to
	// the kernel). Each symbol of a many-partition run is one of a hit, a
	// miss or a bypassed symbol.
	MemoHits, MemoMisses, MemoFlushes, MemoBypassedSymbols int64
}

// MachineCollector aggregates machine-level run telemetry into a registry.
// It satisfies the machine package's Observer hook interface (and the root
// package's RunObserver).
//
// All instruments are atomic, so one collector may be shared by machines
// running on different goroutines.
type MachineCollector struct {
	// Symbols counts input symbols processed across runs.
	Symbols *Counter
	// RunSeconds accumulates host wall time spent scanning.
	RunSeconds *FloatGauge
	// SymbolsPerSecond is the host-throughput of the most recent run.
	SymbolsPerSecond *FloatGauge
	// ActiveStates and ActivePartitions are activity histograms over runs,
	// one observation per run: its per-cycle mean (the paper's Fig. 9/10
	// signals, at the granularity the energy model consumes them).
	ActiveStates     *Histogram
	ActivePartitions *Histogram
	// G1Crossings and G4Crossings count active G-switch source signals.
	G1Crossings *Counter
	G4Crossings *Counter
	// Matches counts report events.
	Matches *Counter
	// OutputBufferInterrupts counts 64-entry output-buffer fills (§2.8).
	OutputBufferInterrupts *Counter
	// OutputBufferHighWater is the peak buffered-report count seen.
	OutputBufferHighWater *Gauge
	// Runs counts completed runs.
	Runs *Counter
	// MemoHits, MemoMisses, MemoFlushes and MemoBypassedSymbols total the
	// configuration memo's RunSummary fields: how often the memo in front
	// of the many-partition kernel found a step, ran the kernel for a step
	// it had not seen or one that reports, flushed its table, or let the
	// kernel scan alone.
	MemoHits, MemoMisses, MemoFlushes, MemoBypassedSymbols *Counter
}

// NewMachineCollector registers the machine run metrics (names prefixed
// ca_) in reg and returns the collector. reg == nil uses Default().
func NewMachineCollector(reg *Registry) *MachineCollector {
	if reg == nil {
		reg = Default()
	}
	stateBuckets := append([]float64{0}, ExpBuckets(1, 2, 13)...) // 0,1,2,…,4096
	partBuckets := append([]float64{0}, ExpBuckets(1, 2, 9)...)   // 0,1,2,…,256
	return &MachineCollector{
		Symbols:          reg.Counter("ca_run_symbols_total", "Input symbols processed."),
		RunSeconds:       reg.FloatGauge("ca_run_seconds_total", "Host wall time spent simulating."),
		SymbolsPerSecond: reg.FloatGauge("ca_run_symbols_per_second", "Host throughput of the last run."),
		ActiveStates: reg.Histogram("ca_active_states",
			"Mean enabled-state count per cycle of a run (includes always-enabled starts).", stateBuckets),
		ActivePartitions: reg.Histogram("ca_active_partitions",
			"Mean partitions with at least one enabled state per cycle of a run.", partBuckets),
		G1Crossings: reg.Counter("ca_g1_crossings_total", "Active G-Switch-1 source signals."),
		G4Crossings: reg.Counter("ca_g4_crossings_total", "Active G-Switch-4 source signals (chained hops count twice)."),
		Matches:     reg.Counter("ca_matches_total", "Report events."),
		OutputBufferInterrupts: reg.Counter("ca_output_buffer_interrupts_total",
			"CPU interrupts raised by output-buffer fills."),
		OutputBufferHighWater: reg.Gauge("ca_output_buffer_highwater",
			"Peak entries buffered in the 64-deep output buffer."),
		Runs: reg.Counter("ca_runs_total", "Completed runs."),
		MemoHits: reg.Counter("ca_machine_memo_hits_total",
			"Configuration-memo lookups that found their step and ran no kernel."),
		MemoMisses: reg.Counter("ca_machine_memo_misses_total",
			"Configuration-memo lookups that ran the kernel: an unseen step, or one that reports."),
		MemoFlushes: reg.Counter("ca_machine_memo_flushes_total",
			"Configuration-memo tables flushed whole at their byte budget."),
		MemoBypassedSymbols: reg.Counter("ca_machine_memo_bypassed_symbols_total",
			"Symbols of many-partition machines the kernel scanned without the configuration memo."),
	}
}

// ObserveRun folds one run's summary into the registry. The two activity
// histograms take one observation per run — the run's per-cycle mean — so a
// run of no symbols leaves them untouched.
func (c *MachineCollector) ObserveRun(r RunSummary) {
	c.Runs.Inc()
	c.Symbols.Add(r.Symbols)
	c.RunSeconds.Add(r.Seconds)
	if r.Seconds > 0 {
		c.SymbolsPerSecond.Set(float64(r.Symbols) / r.Seconds)
	}
	if r.Symbols > 0 {
		c.ActiveStates.Observe(float64(r.SumActiveStates) / float64(r.Symbols))
		c.ActivePartitions.Observe(float64(r.SumActivePartitions) / float64(r.Symbols))
	}
	c.G1Crossings.Add(r.SumG1Crossings)
	c.G4Crossings.Add(r.SumG4Crossings)
	c.Matches.Add(r.Matches)
	c.OutputBufferInterrupts.Add(r.OutputBufferInterrupts)
	c.OutputBufferHighWater.SetMax(r.OutputBufferPeak)
	c.MemoHits.Add(r.MemoHits)
	c.MemoMisses.Add(r.MemoMisses)
	c.MemoFlushes.Add(r.MemoFlushes)
	c.MemoBypassedSymbols.Add(r.MemoBypassedSymbols)
}
