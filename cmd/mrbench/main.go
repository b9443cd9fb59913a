// Command mrbench runs a single MapReduce micro-benchmark — the suite's
// `hadoop jar` equivalent. It builds the requested configuration, executes
// it on the simulated cluster (or for real with -local), and prints the
// configuration echo, job execution time and resource-utilization summary.
//
// Examples:
//
//	mrbench -pattern MR-AVG -network "IPoIB-QDR(32Gbps)" -size 16GB
//	mrbench -pattern MR-SKEW -maps 32 -reduces 16 -engine yarn -slaves 8
//	mrbench -pattern MR-RAND -datatype Text -kv 1024 -size 4GB -monitor
//	mrbench -cluster B -network "RDMA-FDR(56Gbps)" -rdma -size 32GB
//	mrbench -local -pairs 10000 -kv 64   # actually executes the records
//	mrbench -local -pairs 100000 -kv 10 -datatype Text -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mrmicro/internal/cliutil"
	"mrmicro/internal/distrun"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/metrics"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrpipe"
)

func main() {
	distrun.MaybeWorker() // no-op unless spawned as a dist worker process

	shared := microbench.BindFlags(flag.CommandLine)
	prof := cliutil.BindProfileFlags(flag.CommandLine)
	var (
		monitor  = flag.Bool("monitor", false, "collect per-second resource utilization")
		tasklog  = flag.Bool("tasklog", false, "print the per-task-attempt timeline (Gantt)")
		traceF   = flag.String("trace", "", "write a Chrome trace-event JSON of the job to this file")
		local    = flag.Bool("local", false, "execute for real in-process (small scale) instead of simulating")
		diskSh   = flag.Bool("diskshuffle", false, "store committed map outputs in spill files, served via sendfile (-local; default: retained buffers + writev)")
		benchF   = flag.String("bench-json", "", "write machine-readable local-execution throughput results to this file (implies -local)")
		benchN   = flag.Int("bench-reps", 5, "repetitions per configuration for -bench-json medians")
		workers  = flag.Int("workers", 2, "worker processes for -engine=dist")
		specAft  = flag.Duration("speculative", 0, "speculate a duplicate attempt after a task runs this long without committing (-engine=dist; 0 disables)")
		respawn  = flag.Bool("respawn", true, "restart dist worker processes that die abnormally")
		walPath  = flag.String("wal", "", "write-ahead task log path for -engine=dist (empty: no log)")
		pipeline = flag.String("pipeline", "", `run a chained-job pipeline instead of a single job ("hs": HSGen -> HSSort -> HSValidate; -engine=dist runs the reduce stages distributed)`)
	)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	cfg, err := shared.Config()
	if err != nil {
		fatal(err)
	}
	if *monitor {
		cfg.MonitorInterval = time.Second
	}
	if *pipeline != "" {
		runPipeline(*pipeline, cfg, *workers)
		return
	}
	if cfg.PairsPerMap <= 0 && cfg.Workload == "" {
		fatal(fmt.Errorf("specify -size or -pairs"))
	}

	if cfg.Engine == microbench.EngineDist {
		runDist(cfg, &distrun.Options{
			Workers:          *workers,
			WALPath:          *walPath,
			Respawn:          *respawn,
			SpeculativeAfter: *specAft,
			Digest:           true,
		})
		return
	}
	if *local || *benchF != "" {
		runLocal(cfg, *diskSh, *benchF, *benchN)
		return
	}
	res, err := microbench.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
	if *tasklog {
		fmt.Println()
		fmt.Print(res.Report.RenderTimeline(100))
	}
	if *traceF != "" {
		data, err := res.Report.ChromeTrace()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceF, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *traceF)
	}
}

// runPipeline executes a named chained-job pipeline: each stage's committed
// output directory feeds the next stage's splits, and the final stage is a
// checker whose job failure is the pipeline's failure.
func runPipeline(name string, cfg microbench.Config, workers int) {
	if name != "hs" {
		fatal(fmt.Errorf("unknown pipeline %q (have: hs)", name))
	}
	workDir := cfg.OutputDir
	cfg.OutputDir = "" // per-stage dirs are carved under workDir
	if workDir == "" {
		var err error
		if workDir, err = os.MkdirTemp("", "mrmicro-hs-*"); err != nil {
			fatal(err)
		}
	}
	opts := &mrpipe.Options{Dist: cfg.Engine == microbench.EngineDist, Workers: workers}
	engine := "localrun"
	if opts.Dist {
		engine = fmt.Sprintf("distrun, %d workers", workers)
	}
	results, err := mrpipe.RunHS(cfg, workDir, opts)
	for _, r := range results {
		fmt.Printf("stage %-10s %4dM/%dR  wall %-10v output %016x  %s\n",
			r.Name, r.NumMaps, r.NumReduces, r.Elapsed.Round(time.Millisecond), r.OutputDigest, r.Config.OutputDir)
	}
	if err != nil {
		fatal(err)
	}
	last := results[len(results)-1]
	verdict, rerr := os.ReadFile(filepath.Join(last.Config.OutputDir, inputformat.PartName(0)))
	if rerr != nil {
		fatal(fmt.Errorf("reading validate verdict: %w", rerr))
	}
	fmt.Printf("=== HS pipeline PASSED (%s) ===\n%s", engine, verdict)
}

// localOnce builds and executes one real run of cfg, returning the result
// and its wall time.
func localOnce(cfg microbench.Config, disk bool) (*localrun.Result, time.Duration) {
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := localrun.Run(job, &localrun.Options{
		Faults:           cfg.Faults,
		ParallelCopies:   cfg.ParallelCopies,
		DiskShuffle:      disk,
		ShuffleMemBudget: cfg.ShuffleMemBudget,
		MergeFactor:      cfg.MergeFactor,
	})
	if err != nil {
		fatal(err)
	}
	return res, time.Since(start)
}

// runDist executes cfg on the real multi-process runtime: an in-process
// coordinator plus worker processes (this binary, re-executed — see
// distrun.MaybeWorker at the top of main).
func runDist(cfg microbench.Config, opts *distrun.Options) {
	res, err := distrun.Run(cfg, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== %s micro-benchmark (REAL distributed execution via distrun) ===\n", cfg.Pattern)
	fmt.Printf("maps/reduces        %d / %d\n", res.NumMaps, res.NumReduces)
	fmt.Printf("worker processes    %d\n", opts.Workers)
	fmt.Printf("wall time           %v\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("job digest          %016x\n", res.JobDigest)
	if res.RequeuedMaps > 0 || res.SpeculativeWins > 0 || res.RecoveredMaps > 0 || res.RecoveredReduces > 0 {
		fmt.Print(metrics.RenderKV("recovery:", []metrics.KV{
			{Key: "maps re-queued (lost output)", Value: int64(res.RequeuedMaps)},
			{Key: "speculative wins", Value: int64(res.SpeculativeWins)},
			{Key: "maps recovered from WAL", Value: int64(res.RecoveredMaps)},
			{Key: "reduces recovered from WAL", Value: int64(res.RecoveredReduces)},
		}))
	}
	fmt.Printf("counters:\n%s", res.Counters)
	if cfg.Faults != nil {
		fmt.Print(metrics.RenderKV("injected faults survived:", faultKVs(res.Counters)))
	}
}

func runLocal(cfg microbench.Config, disk bool, benchPath string, reps int) {
	res, elapsed := localOnce(cfg, disk)
	name := string(cfg.Pattern) + " micro-benchmark"
	if cfg.Workload != "" {
		name = cfg.Workload + " workload"
	}
	fmt.Printf("=== %s (REAL execution via localrun) ===\n", name)
	fmt.Printf("maps/reduces        %d / %d\n", res.NumMaps, res.NumReduces)
	fmt.Printf("wall time           %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  map phase         %v (to last map commit)\n", res.MapPhase.Round(time.Millisecond))
	fmt.Printf("  shuffle overlap   %v (reducers running under map waves)\n", res.OverlapWindow.Round(time.Millisecond))
	fmt.Printf("  reduce tail       %v (after last map commit)\n", res.ReduceTail.Round(time.Millisecond))
	if ms := res.MapSpill; ms.Spills > 0 {
		fmt.Printf("map-side spill pipeline (%d spills, %d on the background spiller):\n", ms.Spills, ms.AsyncSpills)
		fmt.Printf("  collect stall     %v (mapper blocked on spilling)\n", ms.CollectStall.Round(time.Millisecond))
		fmt.Printf("  spill work        %v sort+combine+codec, %v premerge\n", ms.SpillWork.Round(time.Millisecond), ms.Premerge.Round(time.Millisecond))
		fmt.Printf("  spill overlap     %v (seal work hidden under collection)\n", ms.Overlapped().Round(time.Millisecond))
		fmt.Printf("  drain + merge     %v waiting for last spills, %v per-map final merge\n", ms.DrainWait.Round(time.Millisecond), ms.FinalMerge.Round(time.Millisecond))
	}
	if rm := res.ReduceMerge; rm.DiskRuns > 0 || cfg.ShuffleMemBudget > 0 {
		fmt.Printf("reduce-side merge (budget %d bytes):\n", cfg.ShuffleMemBudget)
		fmt.Printf("  fetch wait        %v (copiers blocked on pool admission)\n", rm.FetchWait.Round(time.Millisecond))
		fmt.Printf("  in-memory merges  %v feeding %d disk runs (%d records, %d bytes)\n", rm.MemMerge.Round(time.Millisecond), rm.DiskRuns, rm.SpilledRecords, rm.SpilledBytes)
		fmt.Printf("  disk passes       %v across %d intermediate waves\n", rm.DiskPass.Round(time.Millisecond), rm.DiskPasses)
		fmt.Printf("  final merge       %v (merge + reduce pass)\n", rm.FinalMerge.Round(time.Millisecond))
	}
	fmt.Printf("counters:\n%s", res.Counters)
	if cfg.Faults != nil {
		fmt.Print(metrics.RenderKV("injected faults survived:", faultKVs(res.Counters)))
	}
	if benchPath != "" {
		if err := writeBenchJSON(benchPath, cfg, disk, reps); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote benchmark results to %s\n", benchPath)
	}
}

// benchReport is the machine-readable result behind -bench-json. Committed
// snapshots of it (BENCH_localrun.json) record the real executor's measured
// throughput so changes to the hot paths leave a reviewable trajectory.
type benchReport struct {
	Schema      string           `json:"schema"`
	Command     string           `json:"command"`
	Config      benchConfig      `json:"config"`
	Results     benchResults     `json:"results"`
	MapSpill    benchMapSpill    `json:"map_spill"`
	ReduceMerge benchReduceMerge `json:"reduce_merge"`
	Codec       benchCodec       `json:"codec"`
}

type benchConfig struct {
	Pattern        string  `json:"pattern"`
	DataType       string  `json:"datatype"`
	KeySize        int     `json:"key_size"`
	ValueSize      int     `json:"value_size"`
	PairsPerMap    int64   `json:"pairs_per_map"`
	NumMaps        int     `json:"maps"`
	NumReduces     int     `json:"reduces"`
	ParallelCopies int     `json:"parallel_copies"`
	Slowstart      float64 `json:"slowstart"`
	Codec          string  `json:"codec"`
	Combine        bool    `json:"combine"`
	DiskShuffle    bool    `json:"diskshuffle"`
	ShuffleMem     int64   `json:"shuffle_mem_budget"` // 0: unbounded pool
	MergeFactor    int     `json:"merge_factor"`       // 0: io.sort.factor default
	IOSortMB       int     `json:"io_sort_mb"`         // 0: 100 MiB default
	SpillPercent   float64 `json:"spill_percent"`      // 0: 0.80 default
	CPUs           int     `json:"cpus"`               // host cores — overlap wins need >1
	Reps           int     `json:"reps"`
}

// benchResults reports medians over the configured repetitions, with the
// overlapped schedule's phase split and a barrier (slowstart=1.0) baseline
// measured in the same process so the overlap win is a single number.
type benchResults struct {
	WallMS           float64 `json:"wall_ms"` // median
	MapPhaseMS       float64 `json:"map_phase_ms"`
	OverlapMS        float64 `json:"shuffle_overlap_ms"`
	ReduceTailMS     float64 `json:"reduce_tail_ms"`
	BarrierWallMS    float64 `json:"barrier_wall_ms"` // median at slowstart=1.0
	SpeedupVsBarrier float64 `json:"speedup_vs_barrier"`
	MapOutputRecs    int64   `json:"map_output_records"`
	RecordsPerSec    float64 `json:"records_per_sec"`
	ShuffleBytes     int64   `json:"shuffle_bytes"`
	ShuffleMBPerSec  float64 `json:"shuffle_mb_per_sec"`
	SpilledRecords   int64   `json:"spilled_records"`
	ReduceOutRecs    int64   `json:"reduce_output_records"`
}

// benchMapSpill is the v5 map-phase breakdown: where the collect/spill
// pipeline spent the map side (last repetition of the main configuration),
// plus a synchronous-spill re-run of the same job in the same process so the
// background SpillThread's win — or its absence on a saturated host — is a
// single attributable number next to the config's cpus field.
type benchMapSpill struct {
	CollectStallMS float64 `json:"collect_stall_ms"` // mapper blocked on spilling
	SpillWorkMS    float64 `json:"spill_work_ms"`    // sort+combine+codec seal time
	SpillOverlapMS float64 `json:"spill_overlap_ms"` // seal+premerge work hidden under collection
	PremergeMS     float64 `json:"premerge_ms"`      // background block premerges
	DrainWaitMS    float64 `json:"drain_wait_ms"`    // mapper waiting for the last spills
	FinalMergeMS   float64 `json:"final_merge_ms"`   // per-map final merge + registration
	Spills         int64   `json:"spills"`
	AsyncSpills    int64   `json:"async_spills"`
	PremergedRuns  int64   `json:"premerged_runs"`

	SyncWallMS       float64 `json:"sync_wall_ms"`      // median, spill.overlap=false
	SyncMapPhaseMS   float64 `json:"sync_map_phase_ms"` // median map phase, sync spills
	SpeedupVsSync    float64 `json:"speedup_vs_sync"`   // sync wall / overlapped wall
	SyncCollectStall float64 `json:"sync_collect_stall_ms"`
}

// benchReduceMerge is the v4 reduce-phase breakdown: where the memory-bounded
// merge pipeline spent the reduce side of the job (last repetition of the main
// configuration), plus a bounded re-run of the same job at a deliberately tiny
// budget so the larger-than-RAM path's cost — or its parity — is recorded
// alongside the unbounded baseline.
type benchReduceMerge struct {
	FetchWaitMS    float64 `json:"fetch_wait_ms"`      // copiers blocked on pool admission
	MemMergeMS     float64 `json:"in_memory_merge_ms"` // pool merges feeding spills
	DiskPassMS     float64 `json:"disk_pass_ms"`       // spill writes + intermediate waves
	FinalMergeMS   float64 `json:"final_merge_ms"`     // final merge + reduce pass
	DiskRuns       int64   `json:"disk_runs"`
	DiskPasses     int64   `json:"disk_passes"`
	SpilledRecords int64   `json:"spilled_records"`
	SpilledBytes   int64   `json:"spilled_bytes"`

	BoundedBudget        int64   `json:"bounded_budget_bytes"` // tiny-budget comparison run
	BoundedWallMS        float64 `json:"bounded_wall_ms"`      // median at that budget
	BoundedTailMS        float64 `json:"bounded_reduce_tail_ms"`
	TailRatioVsUnbounded float64 `json:"bounded_tail_ratio"` // bounded tail / unbounded tail
}

// benchCodec compares the same configuration with spill-time compression off
// and on, measured in the same process: the end-to-end cost or win of the
// codec on the data plane, and the wire-byte ratio it buys.
type benchCodec struct {
	PlainWallMS      float64 `json:"plain_wall_ms"`   // median, codec off
	DeflateWallMS    float64 `json:"deflate_wall_ms"` // median, codec deflate
	PlainWireBytes   int64   `json:"plain_wire_bytes"`
	DeflateWireBytes int64   `json:"deflate_wire_bytes"`
	CompressionRatio float64 `json:"compression_ratio"` // deflate wire / plain wire
	SpeedupVsPlain   float64 `json:"speedup_vs_plain"`  // plain wall / deflate wall
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeBenchJSON(path string, cfg microbench.Config, disk bool, reps int) error {
	if reps < 1 {
		reps = 1
	}
	type sample struct{ wall, mapPhase, overlap, tail float64 }
	measure := func(c microbench.Config) ([]sample, *localrun.Result) {
		out := make([]sample, reps)
		var last *localrun.Result
		for i := range out {
			res, elapsed := localOnce(c, disk)
			out[i] = sample{
				wall:     float64(elapsed.Microseconds()) / 1e3,
				mapPhase: float64(res.MapPhase.Microseconds()) / 1e3,
				overlap:  float64(res.OverlapWindow.Microseconds()) / 1e3,
				tail:     float64(res.ReduceTail.Microseconds()) / 1e3,
			}
			last = res
		}
		return out, last
	}
	pluck := func(s []sample, f func(sample) float64) []float64 {
		out := make([]float64, len(s))
		for i := range s {
			out[i] = f(s[i])
		}
		return out
	}

	overlapped, res := measure(cfg)
	barrierCfg := cfg
	barrierCfg.Slowstart = 1.0
	barrier, _ := measure(barrierCfg)

	// Synchronous-spill twin: the same job with the background SpillThread
	// off, so the map-side overlap's win (or its absence on a saturated
	// host) is measured in the same process as the default path.
	syncCfg := cfg
	syncCfg.SyncSpill = true
	syncSamples, syncRes := measure(syncCfg)

	// Bounded comparison: the same job forced through the memory-bounded
	// merge pipeline at a budget far below its shuffle volume, so the
	// breakdown records what multi-pass disk merging costs here (64KB keeps
	// small bench configs spilling without being one-segment degenerate).
	boundedCfg := cfg
	boundedCfg.ShuffleMemBudget = 64 << 10
	bounded, _ := measure(boundedCfg)

	// Codec on/off comparison at the same configuration, same process: the
	// main results above keep cfg's own codec setting; this pair isolates
	// what spill-time compression costs (or buys) end to end.
	plainCfg, deflCfg := cfg, cfg
	plainCfg.Codec = ""
	deflCfg.Codec = "deflate"
	plain, plainRes := measure(plainCfg)
	defl, deflRes := measure(deflCfg)
	plainWall := median(pluck(plain, func(s sample) float64 { return s.wall }))
	deflWall := median(pluck(defl, func(s sample) float64 { return s.wall }))
	plainWire := plainRes.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	deflWire := deflRes.Counters.Task(mapreduce.CtrReduceShuffleBytes)

	wall := median(pluck(overlapped, func(s sample) float64 { return s.wall }))
	barrierWall := median(pluck(barrier, func(s sample) float64 { return s.wall }))
	secs := wall / 1e3
	recs := res.Counters.Task(mapreduce.CtrMapOutputRecords)
	shuffled := res.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	speedup := 0.0
	if wall > 0 {
		speedup = barrierWall / wall
	}
	if speedup > 0 && speedup < 1 {
		fmt.Fprintf(os.Stderr, "mrbench: warning: speedup_vs_barrier = %.2f < 1 — the overlapped schedule lost to the strict barrier here (host has %d CPUs; overlap needs spare cores to win)\n", speedup, runtime.NumCPU())
	}
	extras := ""
	if cfg.Codec != "" {
		extras += fmt.Sprintf(" -codec %s", cfg.Codec)
	}
	if cfg.Combine {
		extras += " -combine"
	}
	if disk {
		extras += " -diskshuffle"
	}
	if cfg.ShuffleMemBudget > 0 {
		extras += fmt.Sprintf(" -shufflemem %d", cfg.ShuffleMemBudget)
	}
	if cfg.MergeFactor > 0 {
		extras += fmt.Sprintf(" -mergefactor %d", cfg.MergeFactor)
	}
	if cfg.IOSortMB > 0 {
		extras += fmt.Sprintf(" -iosortmb %d", cfg.IOSortMB)
	}
	if cfg.SpillPercent > 0 {
		extras += fmt.Sprintf(" -spillpercent %g", cfg.SpillPercent)
	}
	boundedWall := median(pluck(bounded, func(s sample) float64 { return s.wall }))
	boundedTail := median(pluck(bounded, func(s sample) float64 { return s.tail }))
	tail := median(pluck(overlapped, func(s sample) float64 { return s.tail }))
	syncWall := median(pluck(syncSamples, func(s sample) float64 { return s.wall }))
	rm := res.ReduceMerge
	ms := res.MapSpill
	rep := benchReport{
		Schema: "mrmicro-localrun-bench/v5",
		Command: fmt.Sprintf("mrbench -local -pattern %s -datatype %s -keysize %d -valuesize %d -pairs %d -maps %d -reduces %d -parallelcopies %d -slowstart %g%s -bench-reps %d -bench-json %s",
			cfg.Pattern, cfg.DataType, cfg.KeySize, cfg.ValueSize, cfg.PairsPerMap, res.NumMaps, res.NumReduces, cfg.ParallelCopies, cfg.Slowstart, extras, reps, path),
		Config: benchConfig{
			Pattern:        string(cfg.Pattern),
			DataType:       cfg.DataType,
			KeySize:        cfg.KeySize,
			ValueSize:      cfg.ValueSize,
			PairsPerMap:    cfg.PairsPerMap,
			NumMaps:        res.NumMaps,
			NumReduces:     res.NumReduces,
			ParallelCopies: cfg.ParallelCopies,
			Slowstart:      cfg.Slowstart,
			Codec:          cfg.Codec,
			Combine:        cfg.Combine,
			DiskShuffle:    disk,
			ShuffleMem:     cfg.ShuffleMemBudget,
			MergeFactor:    cfg.MergeFactor,
			IOSortMB:       cfg.IOSortMB,
			SpillPercent:   cfg.SpillPercent,
			CPUs:           runtime.NumCPU(),
			Reps:           reps,
		},
		Results: benchResults{
			WallMS:           wall,
			MapPhaseMS:       median(pluck(overlapped, func(s sample) float64 { return s.mapPhase })),
			OverlapMS:        median(pluck(overlapped, func(s sample) float64 { return s.overlap })),
			ReduceTailMS:     median(pluck(overlapped, func(s sample) float64 { return s.tail })),
			BarrierWallMS:    barrierWall,
			SpeedupVsBarrier: speedup,
			MapOutputRecs:    recs,
			RecordsPerSec:    float64(recs) / secs,
			ShuffleBytes:     shuffled,
			ShuffleMBPerSec:  float64(shuffled) / (1 << 20) / secs,
			SpilledRecords:   res.Counters.Task(mapreduce.CtrSpilledRecords),
			ReduceOutRecs:    res.Counters.Task(mapreduce.CtrReduceOutputRecords),
		},
		MapSpill: benchMapSpill{
			CollectStallMS: float64(ms.CollectStall.Microseconds()) / 1e3,
			SpillWorkMS:    float64(ms.SpillWork.Microseconds()) / 1e3,
			SpillOverlapMS: float64(ms.Overlapped().Microseconds()) / 1e3,
			PremergeMS:     float64(ms.Premerge.Microseconds()) / 1e3,
			DrainWaitMS:    float64(ms.DrainWait.Microseconds()) / 1e3,
			FinalMergeMS:   float64(ms.FinalMerge.Microseconds()) / 1e3,
			Spills:         ms.Spills,
			AsyncSpills:    ms.AsyncSpills,
			PremergedRuns:  ms.PremergedRuns,

			SyncWallMS:       syncWall,
			SyncMapPhaseMS:   median(pluck(syncSamples, func(s sample) float64 { return s.mapPhase })),
			SpeedupVsSync:    ratio(syncWall, wall),
			SyncCollectStall: float64(syncRes.MapSpill.CollectStall.Microseconds()) / 1e3,
		},
		ReduceMerge: benchReduceMerge{
			FetchWaitMS:    float64(rm.FetchWait.Microseconds()) / 1e3,
			MemMergeMS:     float64(rm.MemMerge.Microseconds()) / 1e3,
			DiskPassMS:     float64(rm.DiskPass.Microseconds()) / 1e3,
			FinalMergeMS:   float64(rm.FinalMerge.Microseconds()) / 1e3,
			DiskRuns:       rm.DiskRuns,
			DiskPasses:     rm.DiskPasses,
			SpilledRecords: rm.SpilledRecords,
			SpilledBytes:   rm.SpilledBytes,

			BoundedBudget:        boundedCfg.ShuffleMemBudget,
			BoundedWallMS:        boundedWall,
			BoundedTailMS:        boundedTail,
			TailRatioVsUnbounded: ratio(boundedTail, tail),
		},
		Codec: benchCodec{
			PlainWallMS:      plainWall,
			DeflateWallMS:    deflWall,
			PlainWireBytes:   plainWire,
			DeflateWireBytes: deflWire,
			CompressionRatio: ratio(float64(deflWire), float64(plainWire)),
			SpeedupVsPlain:   ratio(plainWall, deflWall),
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// faultKVs flattens the fault counter group for the report.
func faultKVs(c *mapreduce.Counters) []metrics.KV {
	var out []metrics.KV
	for _, name := range []string{
		mapreduce.CtrMapAttemptsFailed,
		mapreduce.CtrReduceAttemptsFailed,
		mapreduce.CtrShuffleFetchFailures,
		mapreduce.CtrShuffleFetchRetries,
		mapreduce.CtrShuffleFetchesSlow,
		mapreduce.CtrSpillTransientErrors,
	} {
		out = append(out, metrics.KV{Key: name, Value: c.Fault(name)})
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrbench:", err)
	os.Exit(1)
}
