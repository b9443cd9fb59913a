package main

// metricDef declares one benchmark metric. BENCHMARK.json repeats this table
// (bench_test.go holds the two together); the harness emits exactly these
// names: every end-to-end metric on an untraced run, every per-layer metric
// on a traced run. A per-layer metric whose layer a workload never enters
// reads 0 there.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // per-layer counts that must repeat bit-for-bit per seed
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the suite sees: how long a job takes,
// how much shuffle volume and how many records that buys per second, and how
// long it takes to get to the first measured job.
var endToEnd = []metricDef{
	{Name: "job_wall_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "shuffle_mb_per_s", Unit: "MiB/s", Better: higher, Bound: 0.25},
	{Name: "records_per_s", Unit: "rec/s", Better: higher, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer are single-layer metrics, named <package>.<metric>. Source R is
// read from the public Result of untraced jobs; T is a span the harness times
// around a public call in the traced run (see README.md for the table of
// which end-to-end metric each should move, on which workload).
var perLayer = []metricDef{
	// localrun, R: phase split of the overlapped schedule.
	{Name: "localrun.map_phase_ms", Unit: "ms", Better: lower},
	{Name: "localrun.overlap_ms", Unit: "ms", Better: higher},
	{Name: "localrun.reduce_tail_ms", Unit: "ms", Better: lower},
	// localrun, R: map-side collect/spill pipeline (Result.MapSpill).
	{Name: "localrun.collect_stall_ms", Unit: "ms", Better: lower},
	{Name: "localrun.spill_work_ms", Unit: "ms", Better: lower},
	{Name: "localrun.premerge_ms", Unit: "ms", Better: lower},
	{Name: "localrun.drain_wait_ms", Unit: "ms", Better: lower},
	{Name: "localrun.map_final_merge_ms", Unit: "ms", Better: lower},
	{Name: "localrun.spills", Unit: "count", Better: lower, Exact: true},
	// localrun, R: reduce-side merge pipeline (Result.ReduceMerge).
	{Name: "localrun.fetch_wait_ms", Unit: "ms", Better: lower},
	{Name: "localrun.mem_merge_ms", Unit: "ms", Better: lower},
	{Name: "localrun.disk_pass_ms", Unit: "ms", Better: lower},
	{Name: "localrun.reduce_final_merge_ms", Unit: "ms", Better: lower},
	{Name: "localrun.disk_runs", Unit: "count", Better: lower},
	{Name: "localrun.disk_passes", Unit: "count", Better: lower},
	{Name: "localrun.spilled_bytes", Unit: "B", Better: lower},
	// localrun, T: staged serial replay through TaskRunner / FetchMapOutput.
	{Name: "localrun.map_task_ms", Unit: "ms", Better: lower},
	{Name: "localrun.map_tasks_sum_ms", Unit: "ms", Better: lower},
	{Name: "localrun.fetch_sum_ms", Unit: "ms", Better: lower},
	{Name: "localrun.fetch_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "localrun.fetch_wire_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "localrun.fetch_retries", Unit: "count", Better: lower, Exact: true},
	{Name: "localrun.serve_writev_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "localrun.serve_sendfile_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "localrun.reduce_task_ms", Unit: "ms", Better: lower},
	{Name: "localrun.reduce_tasks_sum_ms", Unit: "ms", Better: lower},
	{Name: "localrun.staged_sum_ms", Unit: "ms", Better: lower},
	{Name: "localrun.parallel_speedup", Unit: "x", Better: higher},
	{Name: "localrun.wall_ms_gomaxprocs1", Unit: "ms", Better: lower},
	// kvbuf, T: the workload's own records through the public kernels.
	{Name: "kvbuf.collect_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "kvbuf.sort_spill_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "kvbuf.sort_comparisons", Unit: "count", Better: lower, Exact: true},
	{Name: "kvbuf.merge_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "kvbuf.merge_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "kvbuf.merge_comparisons", Unit: "count", Better: lower, Exact: true},
	{Name: "kvbuf.deflate_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "kvbuf.inflate_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "kvbuf.compress_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "kvbuf.runfile_write_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "kvbuf.runfile_read_mb_per_s", Unit: "MiB/s", Better: higher},
	// microbench, T: generator and partitioner alone.
	{Name: "microbench.gen_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "microbench.partition_ns_per_rec", Unit: "ns/rec", Better: lower},
	// mapreduce, R: work-done denominators; a change means the job changed.
	{Name: "mapreduce.map_output_records", Unit: "count", Better: lower, Exact: true},
	{Name: "mapreduce.map_output_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "mapreduce.reduce_shuffle_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "mapreduce.spilled_records", Unit: "count", Better: lower},
	// mrpipe, R: stage walls of the HS pipeline.
	{Name: "mrpipe.hsgen_ms", Unit: "ms", Better: lower},
	{Name: "mrpipe.hssort_ms", Unit: "ms", Better: lower},
	{Name: "mrpipe.hsvalidate_ms", Unit: "ms", Better: lower},
	// inputformat, T: line reader and text committer over the HSGen rows.
	{Name: "inputformat.read_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "inputformat.write_mb_per_s", Unit: "MiB/s", Better: higher},
	{Name: "inputformat.input_bytes", Unit: "B", Better: lower, Exact: true},
	// distrun, R/T: coordinator, spawn and RPC overhead over the task bodies.
	{Name: "distrun.job_ms", Unit: "ms", Better: lower},
	{Name: "distrun.spawn_ms", Unit: "ms", Better: lower},
	{Name: "distrun.local_oracle_ms", Unit: "ms", Better: lower},
	{Name: "distrun.overhead_ms_per_task", Unit: "ms", Better: lower},
	{Name: "distrun.requeued_maps", Unit: "count", Better: lower, Exact: true},
	{Name: "distrun.speculative_wins", Unit: "count", Better: lower, Exact: true},
	{Name: "hadooprpc.call_us", Unit: "us", Better: lower},
	{Name: "hadooprpc.bulk_mb_per_s", Unit: "MiB/s", Better: higher},
	// figures and the simulated plane, T.
	{Name: "figures.fig_ms.fig2a", Unit: "ms", Better: lower},
	{Name: "figures.fig_ms.fig3a", Unit: "ms", Better: lower},
	{Name: "figures.fig_ms.fig4a", Unit: "ms", Better: lower},
	{Name: "figures.fig_ms.fig7", Unit: "ms", Better: lower},
	{Name: "figures.fig_ms.fig8a", Unit: "ms", Better: lower},
	{Name: "figures.points", Unit: "count", Better: lower, Exact: true},
	{Name: "figures.points_per_s", Unit: "points/s", Better: higher},
	{Name: "figures.output_digest", Unit: "count", Better: lower, Exact: true},
	{Name: "microbench.specbuild_ms", Unit: "ms", Better: lower},
	{Name: "mrv1.run_ms_per_point", Unit: "ms", Better: lower},
	{Name: "yarn.run_ms_per_point", Unit: "ms", Better: lower},
	{Name: "rdmashuffle.run_ms_per_point", Unit: "ms", Better: lower},
	{Name: "mrsim.simsec_per_host_s", Unit: "x", Better: higher},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sim.proc_switches_per_s", Unit: "1/s", Better: higher},
	{Name: "netsim.flows_per_s", Unit: "1/s", Better: higher},
	{Name: "simcache.warm_pass_ms", Unit: "ms", Better: lower},
	{Name: "simcache.hit_ratio", Unit: "ratio", Better: higher},
	// runtime, R: the cost side — reported, never gated.
	{Name: "runtime.alloc_mb_per_job", Unit: "MiB", Better: lower},
	{Name: "runtime.mallocs_per_job", Unit: "count", Better: lower},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: lower},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: lower},
	{Name: "runtime.cpu_s_per_job", Unit: "s", Better: lower},
}
