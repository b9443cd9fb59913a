package figures

import (
	"fmt"
	"runtime"
	"sync"

	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/simcache"
)

// PointResult is the slice of one sweep point's simulation output that
// figure assembly consumes — and therefore the value the result cache
// stores. Keeping it small and JSON-plain (no *mrsim.Report, no engine
// internals) is what makes points cacheable across processes.
type PointResult struct {
	JobSeconds   float64
	ShuffleBytes int64
	// MapInputBytes is the exact input volume for real-input workload
	// points (zero for the synthetic generator, which reads nothing); the
	// shuffle/input ratio classifies workloads shuffle- vs map-heavy.
	MapInputBytes int64
	PeakRxMBps    float64
	// Samples holds per-slave utilization timelines; nil unless the point
	// ran with MonitorInterval set.
	Samples [][]cluster.Sample
}

// pointKeySchema tags cached values with the semantics that produced them.
// Bump the version whenever a kernel, engine, or cost-model change alters
// simulation results: old disk entries then miss instead of resurfacing
// stale numbers.
const pointKeySchema = "mrmicro/point/v7" // v7: the reduce-side disk-pass charge follows the kvbuf.MergePasses plan (fig-mergemem moved)

// pointKey is the hashed identity of a sweep point. Config is normalized
// (defaults explicit, Model resolved) before hashing, so every spelling of
// the same effective configuration shares one entry.
type pointKey struct {
	Schema string
	Config microbench.Config
}

// Runner executes sweep points, optionally concurrently and cached. Each
// point owns a private sim.Engine, so points are embarrassingly parallel;
// results are always assembled in input order, which keeps figure output
// byte-identical at any worker count.
type Runner struct {
	// Workers bounds concurrent points; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes PointResults by content hash.
	Cache *simcache.Cache
}

// RunAll executes every configuration and returns results in input order,
// regardless of completion order. The first error (again in input order)
// aborts the whole sweep. The call is one microbench.Sweep: points that
// differ only in environment (the rungs of an interconnect ladder, the
// engines of a comparison) build their intermediate-data matrix once and
// share it read-only — one matrix per data shape per sweep, dropped when the
// call returns.
func (r Runner) RunAll(cfgs []microbench.Config) ([]PointResult, error) {
	n := len(cfgs)
	sweep := new(microbench.Sweep)
	out := make([]PointResult, n)
	errs := make([]error, n)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, cfg := range cfgs {
			out[i], errs[i] = r.runPoint(sweep, cfg)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = r.runPoint(sweep, cfgs[i])
				}
			}()
		}
		for i := range cfgs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", i, cfgs[i].Label(), err)
		}
	}
	return out, nil
}

// runPoint computes one point, consulting the cache first. The key is built
// over the normalized configuration with the cost model resolved, because
// Model == nil and Model == costmodel.Default() execute identically.
func (r Runner) runPoint(sweep *microbench.Sweep, cfg microbench.Config) (PointResult, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return PointResult{}, err
	}
	if norm.Model == nil {
		norm.Model = costmodel.Default()
	}
	var key string
	if r.Cache != nil {
		key, err = simcache.Key(pointKey{Schema: pointKeySchema, Config: norm})
		if err != nil {
			return PointResult{}, err
		}
		var pr PointResult
		if r.Cache.Get(key, &pr) {
			return pr, nil
		}
	}
	res, err := sweep.Run(norm)
	if err != nil {
		return PointResult{}, err
	}
	pr := PointResult{
		JobSeconds:    res.JobSeconds(),
		ShuffleBytes:  res.ShuffleBytes,
		MapInputBytes: res.Report.Counters.Task(mapreduce.CtrMapInputBytes),
		PeakRxMBps:    res.PeakRxMBps(),
		Samples:       res.Samples,
	}
	if r.Cache != nil {
		// Best-effort: a full or read-only cache directory must not fail
		// the sweep, the point was already computed.
		_ = r.Cache.Put(key, pr)
	}
	return pr, nil
}
