// Package mrpipe chains real-input workload jobs into multi-stage
// dataflows: each stage's committed reduce output becomes the next stage's
// input splits, the way production Hadoop pipelines (and the TPCx-HS
// benchmark this package's HS pipeline models) hand data between jobs
// through the filesystem.
//
// Stages run on the real engines — localrun in-process or the distributed
// coordinator/worker runtime — never the simulators: a pipeline's point is
// that real bytes flow between real jobs. The HSGen → HSSort → HSValidate
// pipeline is the suite's end-to-end correctness anchor: the validate stage
// is a pure checker that fails its job (and thus the pipeline) on any
// ordering or digest violation in the sorted output.
package mrpipe

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/distrun"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// Stage is one job in a pipeline. A file-backed stage with an empty
// InputSpec is chained: it reads the previous stage's committed output
// directory. An empty OutputDir is assigned under the pipeline's work
// directory.
type Stage struct {
	Name   string
	Config microbench.Config
}

// StageResult records one completed stage.
type StageResult struct {
	Name       string
	Config     microbench.Config // as executed: chained input and output resolved
	NumMaps    int
	NumReduces int
	Counters   *mapreduce.Counters
	Elapsed    time.Duration

	// OutputDigest fingerprints the stage's committed part files (names and
	// bytes, in order) — the cross-engine identity check: two runs of a
	// stage agree iff their digests do.
	OutputDigest uint64
}

// Options tunes pipeline execution.
type Options struct {
	// Dist runs reduce-bearing stages on the distributed multi-process
	// runtime. Map-only stages (hsgen) always execute in-process: they
	// bypass the shuffle machinery the distributed runtime schedules.
	// The hosting binary must call distrun.MaybeWorker at the top of main
	// (or TestMain) when Dist is set.
	Dist bool
	// Workers is the distributed runtime's worker process count (default 2).
	Workers int
}

// RunStages executes the stages in order, chaining outputs to inputs, and
// returns one result per stage. A stage failure aborts the pipeline — for
// the HS pipeline that is the contract: HSValidate failing its job is the
// suite's loud signal that an engine broke the sort.
//
// Stage i's OutputDigest is computed while stage i+1 runs: the next stage
// only reads that directory, and the digest is a whole-directory pass that
// would otherwise sit alone on the critical path between the two jobs.
// Every digest started is joined before RunStages returns, on success and
// on failure. A failed digest ends the results at its stage, but later
// stages may already have run on that directory by then; when one of them
// failed too, the returned error carries both.
func RunStages(stages []Stage, workDir string, opts *Options) ([]StageResult, error) {
	if opts == nil {
		opts = &Options{}
	}
	if workDir == "" {
		return nil, fmt.Errorf("mrpipe: work directory required")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("mrpipe: %v", err)
	}
	results := make([]StageResult, 0, len(stages))
	digestErrs := make([]error, len(stages))
	var digests sync.WaitGroup
	// join waits for the digests and folds them into the results. A failed
	// digest ends the results at its stage, as if that stage had failed; a
	// later stage's own error is kept beside it.
	join := func(err error) ([]StageResult, error) {
		digests.Wait()
		for i, derr := range digestErrs[:len(results)] {
			if derr != nil {
				derr = fmt.Errorf("mrpipe: stage %d (%s) output: %w", i, results[i].Name, derr)
				return results[:i], errors.Join(derr, err)
			}
		}
		return results, err
	}
	prevOut := ""
	for i, st := range stages {
		cfg := st.Config
		if cfg.Workload == "" {
			return join(fmt.Errorf("mrpipe: stage %d (%s) names no workload", i, st.Name))
		}
		if cfg.InputSpec == "" && apps.FileBacked(cfg.Workload) {
			if prevOut == "" {
				return join(fmt.Errorf("mrpipe: stage %d (%s) has no input and no previous stage output to chain", i, st.Name))
			}
			cfg.InputSpec = "dir:" + prevOut
		}
		if cfg.OutputDir == "" {
			cfg.OutputDir = filepath.Join(workDir, fmt.Sprintf("stage-%d-%s", i, st.Name))
		}
		cfg, err := cfg.Normalize()
		if err != nil {
			return join(fmt.Errorf("mrpipe: stage %d (%s): %w", i, st.Name, err))
		}
		res, err := runStage(cfg, opts)
		if err != nil {
			return join(fmt.Errorf("mrpipe: stage %d (%s): %w", i, st.Name, err))
		}
		res.Name = st.Name
		res.Config = cfg
		results = append(results, *res)
		// results never reallocates (cap len(stages)): the goroutine owns
		// this element's digest until join reads it.
		out := &results[i]
		digests.Add(1)
		go func() {
			defer digests.Done()
			out.OutputDigest, digestErrs[i] = inputformat.DirDigest(cfg.OutputDir)
		}()
		prevOut = cfg.OutputDir
	}
	return join(nil)
}

func runStage(cfg microbench.Config, opts *Options) (*StageResult, error) {
	if opts.Dist && cfg.NumReduces > 0 {
		dres, err := distrun.Run(cfg, &distrun.Options{Workers: opts.Workers, Digest: true})
		if err != nil {
			return nil, err
		}
		return &StageResult{
			NumMaps:    dres.NumMaps,
			NumReduces: dres.NumReduces,
			Counters:   dres.Counters,
			Elapsed:    dres.Elapsed,
		}, nil
	}
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		return nil, err
	}
	lres, err := localrun.Run(job, &localrun.Options{Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	return &StageResult{
		NumMaps:    lres.NumMaps,
		NumReduces: lres.NumReduces,
		Counters:   lres.Counters,
		Elapsed:    lres.Elapsed,
	}, nil
}

// HSPipeline assembles the TPCx-HS-style three-stage pipeline from a base
// configuration: HSGen writes base.NumMaps x base.PairsPerMap rows, HSSort
// total-order-sorts the generated directory, HSValidate proves the sorted
// output is the generated data in globally ascending order. Seed, map and
// reduce counts, and engine knobs ride the base config.
func HSPipeline(base microbench.Config) ([]Stage, error) {
	base.InputSpec = ""
	base.OutputDir = ""
	base.GrepPattern = ""
	base.Combine = false
	if base.PairsPerMap <= 0 {
		base.PairsPerMap = 1000 // rows per generator map
	}

	gen := base
	gen.Workload = apps.HSGen
	gen, err := gen.Normalize()
	if err != nil {
		return nil, fmt.Errorf("mrpipe: hs pipeline: %w", err)
	}
	rows := int64(gen.NumMaps) * gen.PairsPerMap

	sortCfg := base
	sortCfg.Workload = apps.HSSort
	// The gen stage normalizes the shared knobs (seed, map count); the
	// sort and validate stages inherit them but keep base's reduce count —
	// gen is map-only and zeroes its own.
	sortCfg.NumMaps = gen.NumMaps
	sortCfg.Seed = gen.Seed

	validate := sortCfg
	validate.Workload = apps.HSValidate
	validate.ExtraConf = map[string]string{
		apps.ConfHSRows: strconv.FormatInt(rows, 10),
		apps.ConfHSSeed: strconv.FormatInt(gen.Seed, 10),
	}
	for k, v := range base.ExtraConf {
		validate.ExtraConf[k] = v
	}

	return []Stage{
		{Name: apps.HSGen, Config: gen},
		{Name: apps.HSSort, Config: sortCfg},
		{Name: apps.HSValidate, Config: validate},
	}, nil
}

// RunHS runs the HS pipeline under workDir and returns the per-stage
// results; error is non-nil (and results partial) when any stage — in
// particular the validate checker — fails.
func RunHS(base microbench.Config, workDir string, opts *Options) ([]StageResult, error) {
	stages, err := HSPipeline(base)
	if err != nil {
		return nil, err
	}
	return RunStages(stages, workDir, opts)
}
