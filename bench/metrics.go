package main

// metric declares one number the ledger reports. The same table is
// published in BENCHMARK.json (smoke_test.go keeps the two in step), so
// a name, unit or direction changes in exactly one reviewed place.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline median by which the metric may
	// get worse before -compare calls it a regression (end-to-end only).
	bound float64
	// floor is absolute slack in the metric's unit: a change smaller
	// than this is never a regression however large it is relatively
	// (a 2 ms set-up may wobble by 30% and mean nothing).
	floor float64
	// trim is the share of the best samples set aside before the quiet
	// value is taken (see stat): 0 but for req_p99_us.
	trim float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.020},
	{name: "scan_mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "shard_mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "req_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "req_p99_us", unit: "us", better: "lower", bound: 0.25, trim: 0.05},
	{name: "compile_s", unit: "s", better: "lower", bound: 0.25},
	{name: "load_s", unit: "s", better: "lower", bound: 0.25, floor: 0.001},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.10, floor: 1},
}

// perLayer lists the traced run's numbers, named <module>.<metric>.
// They carry no bound: they explain an end-to-end move, they do not
// gate one. The machine.sim_* rows are the exception -compare enforces:
// they are simulated quantities and must not change at all.
var perLayer = []metric{
	{name: "regexc.parse_s", unit: "s", better: "lower"},
	{name: "regexc.glushkov_s", unit: "s", better: "lower"},
	{name: "regexc.states", unit: "count", better: "lower"},
	{name: "nfa.components_s", unit: "s", better: "lower"},
	{name: "nfa.components", unit: "count", better: "lower"},
	{name: "partition.kway_s", unit: "s", better: "lower"},
	{name: "partition.edge_cut", unit: "count", better: "lower"},
	{name: "mapper.map_s", unit: "s", better: "lower"},
	{name: "mapper.map_optimized_s", unit: "s", better: "lower"},
	{name: "mapper.partitions", unit: "count", better: "lower"},
	{name: "mapper.cross_edges", unit: "count", better: "lower"},
	{name: "caformat.encode_s", unit: "s", better: "lower"},
	{name: "caformat.decode_s", unit: "s", better: "lower"},
	{name: "caformat.artifact_bytes", unit: "bytes", better: "lower"},
	{name: "caformat.cache_put_s", unit: "s", better: "lower"},
	{name: "caformat.cache_get_s", unit: "s", better: "lower"},
	{name: "machine.new_s", unit: "s", better: "lower"},
	{name: "machine.pool_get_ns", unit: "ns", better: "lower"},
	{name: "machine.pool_builds", unit: "count", better: "lower"},
	{name: "machine.run1_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "machine.runN_ns_per_byte.low", unit: "ns/byte", better: "lower"},
	{name: "machine.runN_ns_per_byte.med", unit: "ns/byte", better: "lower"},
	{name: "machine.runN_ns_per_byte.high", unit: "ns/byte", better: "lower"},
	{name: "machine.lanes_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "machine.interleaved_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "machine.allocs_per_run", unit: "count", better: "lower"},
	{name: "machine.alloc_bytes_per_run", unit: "bytes", better: "lower"},
	{name: "machine.sharded_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "machine.shard_efficiency", unit: "ratio", better: "higher"},
	{name: "machine.snapshot_ns", unit: "ns", better: "lower"},
	{name: "machine.restore_ns", unit: "ns", better: "lower"},
	{name: "machine.snapshot_bytes", unit: "bytes", better: "lower"},
	{name: "machine.sim_cycles", unit: "count", better: "lower"},
	{name: "machine.sim_matches", unit: "count", better: "lower"},
	{name: "machine.sim_active_states_avg", unit: "count", better: "lower"},
	{name: "machine.sim_active_partitions_avg", unit: "count", better: "lower"},
	{name: "machine.sim_energy_pj_per_sym", unit: "pJ", better: "lower"},
	{name: "ca.run_self_ns", unit: "ns", better: "lower"},
	{name: "ca.lease_ns", unit: "ns", better: "lower"},
	{name: "ca.feed_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "ca.suspend_us", unit: "us", better: "lower"},
	{name: "ca.resume_us", unit: "us", better: "lower"},
	{name: "baseline.dfa_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "baseline.nfa_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "baseline.nfa_ns_per_byte.dense", unit: "ns/byte", better: "lower"},
	{name: "baseline.goregexp_ns_per_byte", unit: "ns/byte", better: "lower"},
	{name: "server.match_us", unit: "us", better: "lower"},
	{name: "server.match_self_us", unit: "us", better: "lower"},
	{name: "server.http_self_us", unit: "us", better: "lower"},
	{name: "server.tcp_self_us", unit: "us", better: "lower"},
	{name: "server.allocs_per_match", unit: "count", better: "lower"},
	{name: "server.alloc_bytes_per_match", unit: "bytes", better: "lower"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.burst64_req_per_s", unit: "1/s", better: "higher"},
	{name: "server.burst64_batched_req_per_s", unit: "1/s", better: "higher"},
	{name: "server.batched_requests", unit: "count", better: "higher"},
	{name: "server.compile_s", unit: "s", better: "lower"},
	{name: "server.compile_cached_s", unit: "s", better: "lower"},
	{name: "server.open_us", unit: "us", better: "lower"},
	{name: "server.feed_us", unit: "us", better: "lower"},
	{name: "server.checkpoint_us", unit: "us", better: "lower"},
	{name: "server.suspend_us", unit: "us", better: "lower"},
	{name: "server.resume_us", unit: "us", better: "lower"},
	{name: "server.close_us", unit: "us", better: "lower"},
	{name: "server.wal_cost_us", unit: "us", better: "lower"},
	{name: "server.wal_bytes_per_feed", unit: "bytes", better: "lower"},
	{name: "cluster.match_hop_us", unit: "us", better: "lower"},
	{name: "cluster.feed_hop_us", unit: "us", better: "lower"},
	{name: "cluster.checkpoints_shipped", unit: "count", better: "higher"},
	{name: "telemetry.recorder_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "bench.fail_ratio", unit: "ratio", better: "lower"},
}

// perWorkloadLayers are the per-layer metrics a workload's own traced
// rounds produce; every other per-layer metric comes from the layer
// matrix, which does not depend on the workload.
var perWorkloadLayers = map[string]bool{
	"bench.trace_overhead_ratio": true,
	"bench.fail_ratio":           true,
}

func findMetric(table []metric, name string) *metric {
	for i := range table {
		if table[i].name == name {
			return &table[i]
		}
	}
	return nil
}
