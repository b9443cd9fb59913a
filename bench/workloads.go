package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/figures"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrpipe"
	"mrmicro/internal/simcache"
)

// env is what the command line hands every workload.
type env struct {
	seed  int64
	smoke bool   // test sizes: every workload under a second
	nproc int    // GOMAXPROCS the run was started with
	tmp   string // harness-owned temp root; TMPDIR points here
}

// jobSample is one measured job (pipeline, figure pass).
type jobSample struct {
	wall time.Duration
	// Work done, the throughput denominators: MAP_OUTPUT_RECORDS and
	// MAP_OUTPUT_BYTES of the shuffle-bearing job; on sim-figs, sweep points
	// and simulated shuffle bytes of one pass.
	records, bytes int64
	// layer holds the per-layer values (source R) this job's public result
	// exposes.
	layer map[string]float64
}

// workload is one named benchmark input. Closed loop, one client: the harness
// calls job() again only after the previous call returned.
type workload interface {
	// setup materialises inputs, computes the oracle and runs one checked
	// warm-up job. It is repeatable; every repeat starts from scratch.
	setup() error
	// job runs one job through the public entry point, timing only that
	// call, and checks the output; an error is a failed job.
	job() (jobSample, error)
	// trace replays the workload staged and serial and runs the micro-spans
	// of the layers it enters, recording into t for about budget.
	trace(t *tracer, budget time.Duration) error
}

// The six workloads. Sizes are the issue's 2-core probe scaled so that one
// run (set-up + --seconds of jobs) fits the driver's time cap; shapes — k/v
// size, pattern, task counts, knobs — are the issue's.
var workloadNames = []string{"avg-1k", "rand-10b", "skew-bounded", "hs-pipeline", "dist-avg", "sim-figs"}

func newWorkload(name string, e env) (workload, error) {
	pairs := func(full, smoke int64) int64 {
		if e.smoke {
			return smoke
		}
		return full
	}
	switch name {
	case "avg-1k":
		return &localWL{e: e, cfg: microbench.Config{
			Pattern: microbench.MRAvg, DataType: "BytesWritable", KeySize: 1024, ValueSize: 1024,
			PairsPerMap: pairs(16384, 128), NumMaps: 8, NumReduces: 4, ParallelCopies: 2, Seed: e.seed,
		}}, nil
	case "rand-10b":
		return &localWL{e: e, cfg: microbench.Config{
			Pattern: microbench.MRRand, DataType: "Text", KeySize: 10, ValueSize: 10,
			PairsPerMap: pairs(100000, 4000), NumMaps: 8, NumReduces: 4, ParallelCopies: 2, Seed: e.seed,
		}}, nil
	case "skew-bounded":
		// Every non-default twin on: multi-spill ring with premerge, deflate,
		// disk-backed sendfile serving, bounded reduce merge with disk passes.
		cfg := microbench.Config{
			Pattern: microbench.MRSkew, DataType: "BytesWritable", KeySize: 256, ValueSize: 256,
			PairsPerMap: pairs(16384, 4096), NumMaps: 8, NumReduces: 4, ParallelCopies: 2, Seed: e.seed,
			IOSortMB: 2, ShuffleMemBudget: 2 << 20, MergeFactor: 4, Codec: "deflate",
		}
		if e.smoke {
			cfg.IOSortMB, cfg.ShuffleMemBudget = 1, 256<<10
		}
		return &localWL{e: e, cfg: cfg, disk: true}, nil
	case "hs-pipeline":
		return &hsWL{e: e, base: microbench.Config{
			PairsPerMap: pairs(100000, 2000), NumMaps: 4, NumReduces: 4, ParallelCopies: 2, Seed: e.seed,
		}}, nil
	case "dist-avg":
		return &distWL{e: e, cfg: microbench.Config{
			Pattern: microbench.MRAvg, DataType: "BytesWritable", KeySize: 1024, ValueSize: 1024,
			PairsPerMap: pairs(8192, 64), NumMaps: 16, NumReduces: 4, ParallelCopies: 2, Seed: e.seed,
			Engine: microbench.EngineDist,
		}}, nil
	case "sim-figs":
		w := &simWL{e: e, figs: []string{"fig2a", "fig3a", "fig4a", "fig7", "fig8a"}}
		if e.smoke {
			w.figs, w.quick = []string{"fig2a", "fig7", "fig8a"}, true
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---- local synthetic workloads: localrun.Run of microbench.BuildJob ----

type localWL struct {
	e    env
	cfg  microbench.Config
	disk bool // Options.DiskShuffle

	oracle *distrun.Result
	last   *localrun.Result // the most recent job, for the staged replay's counter check
}

func (w *localWL) opts() *localrun.Options {
	// Map/reduce parallelism stay at the program's default (GOMAXPROCS);
	// budget, merge factor, codec and sort buffer ride the job conf.
	return &localrun.Options{ParallelCopies: w.cfg.ParallelCopies, DiskShuffle: w.disk}
}

func (w *localWL) setup() error {
	oracle, err := distrun.LocalOracle(w.cfg)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	w.oracle = oracle
	_, err = w.job()
	return err
}

func (w *localWL) job() (jobSample, error) {
	job, err := microbench.BuildJob(w.cfg)
	if err != nil {
		return jobSample{}, err
	}
	start := time.Now()
	res, err := localrun.Run(job, w.opts())
	wall := time.Since(start)
	if err != nil {
		return jobSample{}, err
	}
	w.last = res
	if err := checkSynthetic(w.cfg, res.Counters, res.PerReduceRecords, w.oracle); err != nil {
		return jobSample{}, err
	}
	layer := localLayer(res)
	counterLayer(layer, res.Counters)
	return jobSample{
		wall:    wall,
		records: res.Counters.Task(mapreduce.CtrMapOutputRecords),
		bytes:   res.Counters.Task(mapreduce.CtrMapOutputBytes),
		layer:   layer,
	}, nil
}

// checkSynthetic holds a synthetic job to the counter identities and to the
// oracle's realised partition sizes.
func checkSynthetic(cfg microbench.Config, c *mapreduce.Counters, perReduce []int64, oracle *distrun.Result) error {
	want := int64(cfg.NumMaps) * cfg.PairsPerMap
	if got := c.Task(mapreduce.CtrMapOutputRecords); got != want {
		return fmt.Errorf("MAP_OUTPUT_RECORDS %d, want maps x pairs = %d", got, want)
	}
	if got := c.Task(mapreduce.CtrReduceInputRecords); got != want {
		return fmt.Errorf("REDUCE_INPUT_RECORDS %d, want %d", got, want)
	}
	if got, want := c.Task(mapreduce.CtrShuffledMaps), int64(cfg.NumMaps*cfg.NumReduces); got != want {
		return fmt.Errorf("SHUFFLED_MAPS %d, want maps x reduces = %d", got, want)
	}
	if !reflect.DeepEqual(perReduce, oracle.PerReduceRecords) {
		return fmt.Errorf("PerReduceRecords %v, oracle %v", perReduce, oracle.PerReduceRecords)
	}
	return nil
}

// localLayer reads the per-layer breakdown localrun.Result already exports.
func localLayer(r *localrun.Result) map[string]float64 {
	return map[string]float64{
		"localrun.map_phase_ms":   ms(r.MapPhase),
		"localrun.overlap_ms":     ms(r.OverlapWindow),
		"localrun.reduce_tail_ms": ms(r.ReduceTail),

		"localrun.collect_stall_ms":   ms(r.MapSpill.CollectStall),
		"localrun.spill_work_ms":      ms(r.MapSpill.SpillWork),
		"localrun.premerge_ms":        ms(r.MapSpill.Premerge),
		"localrun.drain_wait_ms":      ms(r.MapSpill.DrainWait),
		"localrun.map_final_merge_ms": ms(r.MapSpill.FinalMerge),
		"localrun.spills":             float64(r.MapSpill.Spills),

		"localrun.fetch_wait_ms":         ms(r.ReduceMerge.FetchWait),
		"localrun.mem_merge_ms":          ms(r.ReduceMerge.MemMerge),
		"localrun.disk_pass_ms":          ms(r.ReduceMerge.DiskPass),
		"localrun.reduce_final_merge_ms": ms(r.ReduceMerge.FinalMerge),
		"localrun.disk_runs":             float64(r.ReduceMerge.DiskRuns),
		"localrun.disk_passes":           float64(r.ReduceMerge.DiskPasses),
		"localrun.spilled_bytes":         float64(r.ReduceMerge.SpilledBytes),
	}
}

// counterLayer adds the work-done denominators.
func counterLayer(layer map[string]float64, c *mapreduce.Counters) {
	layer["mapreduce.map_output_records"] = float64(c.Task(mapreduce.CtrMapOutputRecords))
	layer["mapreduce.map_output_bytes"] = float64(c.Task(mapreduce.CtrMapOutputBytes))
	layer["mapreduce.reduce_shuffle_bytes"] = float64(c.Task(mapreduce.CtrReduceShuffleBytes))
	layer["mapreduce.spilled_records"] = float64(c.Task(mapreduce.CtrSpilledRecords))
}

// ---- dist-avg: the same task bodies driven by the coordinator across processes ----

type distWL struct {
	e   env
	cfg microbench.Config

	oracle    *distrun.Result
	last      *distrun.Result
	elapsedMs []float64 // Result.Elapsed of every checked job
}

func (w *distWL) setup() error {
	oracle, err := distrun.LocalOracle(w.cfg)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	w.oracle = oracle
	_, err = w.job()
	return err
}

func (w *distWL) job() (jobSample, error) {
	start := time.Now()
	// No WAL, no speculation, no faults. The worker timeout is raised from its
	// 250 ms default: the shared host stalls longer than that now and then,
	// and a stall must not be taken for a dead worker whose maps re-run.
	res, err := distrun.Run(w.cfg, &distrun.Options{Workers: 2, Digest: true, WorkerTimeout: 5 * time.Second})
	wall := time.Since(start)
	if err != nil {
		return jobSample{}, err
	}
	w.last = res
	w.elapsedMs = append(w.elapsedMs, ms(res.Elapsed))
	if err := checkSynthetic(w.cfg, res.Counters, res.PerReduceRecords, w.oracle); err != nil {
		return jobSample{}, err
	}
	if res.JobDigest != w.oracle.JobDigest {
		return jobSample{}, fmt.Errorf("JobDigest %016x, oracle %016x", res.JobDigest, w.oracle.JobDigest)
	}
	if res.RequeuedMaps != 0 || res.SpeculativeWins != 0 {
		return jobSample{}, fmt.Errorf("clean run re-queued %d maps, %d speculative wins", res.RequeuedMaps, res.SpeculativeWins)
	}
	layer := map[string]float64{
		"distrun.job_ms":           ms(res.Elapsed),
		"distrun.spawn_ms":         ms(wall - res.Elapsed),
		"distrun.requeued_maps":    float64(res.RequeuedMaps),
		"distrun.speculative_wins": float64(res.SpeculativeWins),
	}
	counterLayer(layer, res.Counters)
	return jobSample{
		wall:    wall,
		records: res.Counters.Task(mapreduce.CtrMapOutputRecords),
		bytes:   res.Counters.Task(mapreduce.CtrMapOutputBytes),
		layer:   layer,
	}, nil
}

// ---- hs-pipeline: HSGen -> HSSort -> HSValidate through real files ----

type hsWL struct {
	e    env
	base microbench.Config

	sortDigest uint64 // HSSort output digest of the first job; every later job must match
}

func (w *hsWL) setup() error {
	w.sortDigest = 0
	_, err := w.job()
	return err
}

// run executes the pipeline in a fresh work directory and checks it. The
// caller removes dir.
func (w *hsWL) run() (dir string, wall time.Duration, stages []mrpipe.StageResult, err error) {
	dir, err = os.MkdirTemp(w.e.tmp, "hs-")
	if err != nil {
		return "", 0, nil, err
	}
	start := time.Now()
	stages, err = mrpipe.RunHS(w.base, dir, &mrpipe.Options{})
	wall = time.Since(start)
	if err != nil { // HSValidate failing its job is the pipeline's validity check
		return dir, wall, stages, err
	}
	if len(stages) != 3 {
		return dir, wall, stages, fmt.Errorf("pipeline returned %d stages, want 3", len(stages))
	}
	if d := stages[1].OutputDigest; w.sortDigest == 0 {
		w.sortDigest = d
	} else if d != w.sortDigest {
		return dir, wall, stages, fmt.Errorf("HSSort output digest %016x, first job of this seed %016x", d, w.sortDigest)
	}
	return dir, wall, stages, nil
}

func (w *hsWL) job() (jobSample, error) {
	dir, wall, stages, err := w.run()
	if dir != "" {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return jobSample{}, err
	}
	sortCtrs := stages[1].Counters
	layer := map[string]float64{
		"mrpipe.hsgen_ms":         ms(stages[0].Elapsed),
		"mrpipe.hssort_ms":        ms(stages[1].Elapsed),
		"mrpipe.hsvalidate_ms":    ms(stages[2].Elapsed),
		"inputformat.input_bytes": float64(sortCtrs.Task(mapreduce.CtrMapInputBytes)),
	}
	counterLayer(layer, sortCtrs)
	return jobSample{
		wall:    wall,
		records: sortCtrs.Task(mapreduce.CtrMapOutputRecords),
		bytes:   sortCtrs.Task(mapreduce.CtrMapOutputBytes),
		layer:   layer,
	}, nil
}

// ---- sim-figs: the simulated plane at full scale, uncached ----

type simWL struct {
	e     env
	figs  []string
	quick bool

	// Taken once from the warm-up pass, which runs through a fresh cache:
	// lookups are the pass's sweep points, and the cached point results give
	// the simulated volume and simulated seconds one pass covers.
	points     int64
	simBytes   int64
	simSeconds float64
	digest     uint64 // rendered output of every figure; each pass must match
}

// pass generates every figure once and digests the rendered output. perFig,
// when non-nil, receives each figure's wall.
func (w *simWL) pass(o figures.Options, perFig func(id string, d time.Duration)) (uint64, error) {
	o.Quick = w.quick
	h := fnv.New64a()
	for _, id := range w.figs {
		fig, ok := figures.ByID(id)
		if !ok {
			return 0, fmt.Errorf("unknown figure %q", id)
		}
		start := time.Now()
		out, err := fig.Generate(o)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		if perFig != nil {
			perFig(id, time.Since(start))
		}
		h.Write([]byte(out.Render()))
	}
	return h.Sum64(), nil
}

func (w *simWL) setup() error {
	dir, err := os.MkdirTemp(w.e.tmp, "simcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := simcache.New(dir)
	if err != nil {
		return err
	}
	digest, err := w.pass(figures.Options{Workers: w.e.nproc, Cache: cache}, nil)
	if err != nil {
		return err
	}
	hits, misses := cache.Stats()
	w.points, w.digest = hits+misses, digest
	w.simBytes, w.simSeconds, err = sumCachedPoints(dir)
	return err
}

// sumCachedPoints adds up what the cache's entries (one figures.PointResult
// per distinct sweep point) say one pass simulates.
func sumCachedPoints(dir string) (bytes int64, seconds float64, err error) {
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	for _, p := range entries {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, 0, err
		}
		var pr figures.PointResult
		if err := json.Unmarshal(b, &pr); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		bytes += pr.ShuffleBytes
		seconds += pr.JobSeconds
	}
	return bytes, seconds, nil
}

func (w *simWL) job() (jobSample, error) {
	layer := map[string]float64{}
	start := time.Now()
	digest, err := w.pass(figures.Options{Workers: w.e.nproc}, func(id string, d time.Duration) {
		layer["figures.fig_ms."+id] = ms(d)
	})
	wall := time.Since(start)
	if err != nil {
		return jobSample{}, err
	}
	if digest != w.digest {
		return jobSample{}, fmt.Errorf("figure output digest %016x, warm-up pass %016x", digest, w.digest)
	}
	for name, v := range map[string]float64{
		"figures.points":          float64(w.points),
		"figures.points_per_s":    float64(w.points) / wall.Seconds(),
		"figures.output_digest":   float64(w.digest >> 16), // 48 bits: exact in a float64
		"mrsim.simsec_per_host_s": w.simSeconds / wall.Seconds(),
	} {
		layer[name] = v
	}
	return jobSample{wall: wall, records: w.points, bytes: w.simBytes, layer: layer}, nil
}
