package main

// metricDef declares one metric. BENCHMARK.json at the repository root
// repeats name, unit, better and bound; the package test keeps the two in
// step. Moves (per-layer metrics only) names the end-to-end metric and
// workload the layer metric should move; README.md explains how.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// runSeconds is BENCHMARK.json's run_seconds, the default of -seconds.
const runSeconds = 10

// endToEnd lists what a user of the simulator waits on or pays, every one
// reported by every workload. Host-time values are the median repetition.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.25},
}

// infoMetrics are reported by the untraced run beside the end-to-end
// metrics, by the workloads that have them; the driver does not gate them
// (they are exact unit conversions of wall_s, or tail latencies too noisy
// for a bound) but -compare reads them.
var infoMetrics = []metricDef{
	{Name: "flit_hops_per_s", Unit: "flit-hops/s", Better: "higher"},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "job_cached_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "job_cached_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "job_cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "job_cold_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_failed_share", Unit: "share", Better: "lower"},
}

var perLayer = []metricDef{
	{Name: "sim.rng_ns_per_draw", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop (64 draws per cycle)"},
	{Name: "sim.delayline_ns_per_op", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_*"},
	{Name: "topology.byname_us_mesh16x16", Unit: "us", Better: "lower", Moves: "setup_s @ sat_mesh16x16; wall_s @ sweep_knee (built per point)"},
	{Name: "topology.partition_us", Unit: "us", Better: "lower", Moves: "setup_s @ sat_mesh16x16"},
	{Name: "routing.route_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_*"},
	{Name: "traffic.dest_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop"},
	{Name: "router.step_ns_empty", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop"},
	{Name: "router.step_ns_1flit_per_port", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_*; flat @ idle_batch_tail, service_mix"},
	{Name: "router.step_ns_full", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_*; flat @ idle_batch_tail, service_mix"},
	{Name: "router.allocs_per_step", Unit: "count", Better: "lower", Moves: "sim_cycles_per_s, peak_rss_mb @ sat_*"},
	{Name: "network.new_ms_mesh8x8", Unit: "ms", Better: "lower", Moves: "setup_s @ sat_mesh8x8; wall_s @ sweep_knee"},
	{Name: "network.new_ms_mesh16x16", Unit: "ms", Better: "lower", Moves: "setup_s @ sat_mesh16x16"},
	{Name: "network.step_ns_idle_mesh8x8", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop"},
	{Name: "network.step_ns_knee_mesh8x8", Unit: "ns", Better: "lower", Moves: "wall_s @ sweep_knee"},
	{Name: "network.step_ns_sat_mesh8x8", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh8x8"},
	{Name: "network.step_ns_sat_mesh16x16", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh16x16"},
	{Name: "network.ns_per_flit_hop_sat_mesh8x8", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh8x8"},
	{Name: "network.ns_per_flit_hop_sat_mesh16x16", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh16x16"},
	{Name: "network.active_routers_mean_idle", Unit: "count", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop (of 64 routers)"},
	{Name: "network.active_routers_mean_sat", Unit: "count", Better: "lower", Moves: "none: shows sat_mesh8x8 keeps every router busy (of 64)"},
	{Name: "network.allocs_per_kcycle_sat", Unit: "count", Better: "lower", Moves: "sim_cycles_per_s, peak_rss_mb @ sat_*"},
	{Name: "network.bytes_per_kcycle_sat", Unit: "B", Better: "lower", Moves: "peak_rss_mb @ sat_*"},
	{Name: "network.send_ns_per_packet", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_*"},
	{Name: "network.shards2_speedup_mesh16x16", Unit: "ratio", Better: "higher", Moves: "wall_s @ sat_mesh16x16 if sharding becomes the default"},
	{Name: "network.shards2_cpu_ratio_mesh16x16", Unit: "ratio", Better: "lower", Moves: "cpu_s @ sat_mesh16x16 if sharding becomes the default"},
	{Name: "network.flit_hops_per_s", Unit: "flit-hops/s", Better: "higher", Moves: "this workload's own traced repetitions; 0 where no Inspect hook reaches the network"},
	{Name: "engine.loop_ns_per_cycle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop"},
	{Name: "engine.ff_ns_per_jump", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_batch_tail"},
	{Name: "engine.ctx_poll_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "job_cold_p50_ms @ service_mix (jobs run under a context)"},
	{Name: "engine.stepped_cycles", Unit: "cycles", Better: "lower", Moves: "this workload's own repetition; 0 where no OnEngine hook exists"},
	{Name: "engine.skipped_cycles", Unit: "cycles", Better: "higher", Moves: "this workload's own repetition"},
	{Name: "engine.skip_ratio", Unit: "ratio", Better: "higher", Moves: "sim_cycles_per_s @ idle_batch_tail (>= 0.9 there, 0 @ sat_*)"},
	{Name: "openloop.run_ns_per_cycle_idle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop"},
	{Name: "openloop.run_ns_per_cycle_sat", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh8x8"},
	{Name: "openloop.driver_ns_per_cycle_idle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_openloop (run minus network loop: an estimate)"},
	{Name: "openloop.driver_ns_per_cycle_sat", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh8x8 (an estimate)"},
	{Name: "openloop.sweep_points_launched", Unit: "count", Better: "lower", Moves: "wall_s @ sweep_knee"},
	{Name: "openloop.sweep_points_reported", Unit: "count", Better: "higher", Moves: "none: the base of sweep_useful_ratio"},
	{Name: "openloop.sweep_useful_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s @ sweep_knee"},
	{Name: "closedloop.batch_ns_per_transaction", Unit: "ns", Better: "lower", Moves: "job_cold_p50_ms @ service_mix (batch jobs)"},
	{Name: "closedloop.tail_ns_per_stepped_cycle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ idle_batch_tail"},
	{Name: "closedloop.barrier_ns_per_phase", Unit: "ns", Better: "lower", Moves: "none today: no workload runs the barrier model"},
	{Name: "cmp.exec_cycles_per_s", Unit: "cycles/s", Better: "higher", Moves: "sim_cycles_per_s @ exec_canneal"},
	{Name: "cmp.ideal_cycles_per_s", Unit: "cycles/s", Better: "higher", Moves: "sim_cycles_per_s @ exec_canneal"},
	{Name: "cmp.network_share", Unit: "ratio", Better: "lower", Moves: "caps what a network gain can do @ exec_canneal"},
	{Name: "workload.characterize_ms", Unit: "ms", Better: "lower", Moves: "none today: no workload characterizes"},
	{Name: "analytic.estimator_build_ms", Unit: "ms", Better: "lower", Moves: "wall_s @ sweep_knee once screening is enabled"},
	{Name: "analytic.curve25_us", Unit: "us", Better: "lower", Moves: "wall_s @ sweep_knee once screening is enabled"},
	{Name: "analytic.knee_us", Unit: "us", Better: "lower", Moves: "wall_s @ sweep_knee once screening is enabled"},
	{Name: "analytic.latency_err_idle", Unit: "ratio", Better: "lower", Moves: "none: |model - simulation| / simulation at 2 % load, the reference check"},
	{Name: "expcache.key_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "expcache.put_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix (cold jobs)"},
	{Name: "expcache.get_hit_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix (cached jobs)"},
	{Name: "expcache.get_miss_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix (cold jobs)"},
	{Name: "expcache.entry_bytes_mean", Unit: "B", Better: "lower", Moves: "expcache.get_hit_us"},
	{Name: "expcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "none: hits / (hits + misses) of a quarter service round, primed cache"},
	{Name: "core.parsespec_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "core.validate_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "core.spec_hash_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "core.build_us_mesh8x8", Unit: "us", Better: "lower", Moves: "wall_s @ sweep_knee (built per point)"},
	{Name: "core.run_cached_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "core.run_cold_ms", Unit: "ms", Better: "lower", Moves: "wall_s, sim_cycles_per_s @ service_mix"},
	{Name: "par.parallel_noop_us", Unit: "us", Better: "lower", Moves: "wall_s @ sweep_knee"},
	{Name: "par.pool_submit_to_run_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "par.gang_wave_ns", Unit: "ns", Better: "lower", Moves: "explains network.shards2_speedup_mesh16x16"},
	{Name: "par.gang_barrier_ns", Unit: "ns", Better: "lower", Moves: "explains network.shards2_speedup_mesh16x16"},
	{Name: "service.submit_us_cached", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "service.submit_us_coalesced", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix (burst ops)"},
	{Name: "service.http_post_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "service.sse_terminal_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "job_cached_p99_ms @ service_mix (one worker: a cold job ahead is the wait)"},
	{Name: "service.run_ms_cold_p50", Unit: "ms", Better: "lower", Moves: "wall_s @ service_mix"},
	{Name: "service.job_cached_p50_ms", Unit: "ms", Better: "lower", Moves: "wall_s @ service_mix (quarter round)"},
	{Name: "service.job_cold_p50_ms", Unit: "ms", Better: "lower", Moves: "wall_s @ service_mix (quarter round)"},
	{Name: "service.coalesce_ratio", Unit: "ratio", Better: "higher", Moves: "none: 200-coalesced / duplicate POSTs sent"},
	{Name: "service.rejected_503", Unit: "count", Better: "lower", Moves: "failed ops @ service_mix"},
	{Name: "service.jobs_list_us_at_5k_jobs", Unit: "us", Better: "lower", Moves: "peak_rss_mb @ service_mix (the job table only grows)"},
	{Name: "obs.observer_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_cycles_per_s @ sat_mesh8x8 must stay flat when in-program spans land"},
	{Name: "obs.ledger_append_us", Unit: "us", Better: "lower", Moves: "wall_s @ service_mix once nocd's ledger is on"},
	{Name: "obs.promtext_us", Unit: "us", Better: "lower", Moves: "none today: no workload scrapes /metrics"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s @ sat_* with a registry installed"},
	{Name: "fault.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "guard: flat under every roadmap item"},
	{Name: "stats.histogram_add_ns", Unit: "ns", Better: "lower", Moves: "guard: flat under every roadmap item"},
	{Name: "trace.capture_replay_ms", Unit: "ms", Better: "lower", Moves: "guard: flat under every roadmap item"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced / untraced wall_s of this workload"},
	{Name: "bench.host_noise_ratio", Unit: "ratio", Better: "lower", Moves: "context: slowest / fastest calibration spin around the run; above 1.25 the run is noisy"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "context: total GC pause of the process"},
	{Name: "bench.heap_inuse_mb", Unit: "MiB", Better: "lower", Moves: "peak_rss_mb of this workload"},
}
