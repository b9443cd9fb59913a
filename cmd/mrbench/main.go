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
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
		benchN   = flag.Int("bench-reps", 1, "run the -local job this many times in this process and print each wall time and their median")
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

	cfg, err := shared()
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
	// Normalize once: every engine below, and the report, then reads the one
	// effective configuration (-conf overrides of knob keys already folded).
	if cfg, err = cfg.Normalize(); err != nil {
		fatal(err)
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
	if *local {
		runLocal(cfg, *diskSh, *benchN)
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
	res, err := localrun.Run(job, &localrun.Options{Faults: cfg.Faults, DiskShuffle: disk})
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

// runLocal executes cfg for real and prints the run's report. With reps > 1
// the job runs that many times in this process, each wall time printed as it
// completes and the median after the last run's report, so an A/B of one
// knob is one command per side.
func runLocal(cfg microbench.Config, disk bool, reps int) {
	var res *localrun.Result
	walls := make([]time.Duration, max(reps, 1))
	for i := range walls {
		res, walls[i] = localOnce(cfg, disk)
		if len(walls) > 1 {
			fmt.Printf("rep %-2d wall         %.1f ms\n", i+1, float64(walls[i].Microseconds())/1e3)
		}
	}
	elapsed := walls[len(walls)-1]
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
		fmt.Printf("  disk passes       %v across %d intermediate merges\n", rm.DiskPass.Round(time.Millisecond), rm.DiskPasses)
		fmt.Printf("  final merge       %v (merge + reduce pass)\n", rm.FinalMerge.Round(time.Millisecond))
	}
	fmt.Printf("counters:\n%s", res.Counters)
	if cfg.Faults != nil {
		fmt.Print(metrics.RenderKV("injected faults survived:", faultKVs(res.Counters)))
	}
	if len(walls) > 1 {
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		mid := (walls[(len(walls)-1)/2] + walls[len(walls)/2]) / 2
		fmt.Printf("median wall         %.1f ms over %d reps\n", float64(mid.Microseconds())/1e3, len(walls))
	}
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
