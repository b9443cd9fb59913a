package mrcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mrmicro/internal/apps"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrpipe"
)

// checkWorkload runs the real-input workload invariant library over one
// (already normalized) configuration:
//
//   - workload-oracle identity: the committed reduce output equals the
//     independent in-process oracle, byte for byte (as a sorted line
//     multiset — multi-reduce runs spread lines across parts).
//   - exact input accounting: MAP_INPUT_BYTES equals the corpus size, so
//     chunk-spanning splits charge every byte to exactly one map task.
//   - recovery: the same job under its injected fault plan commits
//     byte-identical output.
//   - cross-engine counter identity: the spec-modeled engines report the
//     input/output counters the real executor measured.
//   - hssort configs additionally run the chained-pipeline identity and the
//     HSValidate checker (see checkHSSort).
func checkWorkload(cfg microbench.Config, opts CheckOptions) error {
	if cfg.Workload == apps.HSSort {
		return checkHSSort(cfg, opts)
	}
	work, err := os.MkdirTemp("", "mrcheck-workload-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	clean := cfg
	clean.OutputDir = filepath.Join(work, "clean")
	sum, err := runWorkloadLocal(clean, false, opts.MutateJob)
	if err != nil {
		return err
	}

	corpus, err := inputformat.Materialize(cfg.InputSpec)
	if err != nil {
		return err
	}
	om, err := apps.Oracle(cfg.Workload, corpus, cfg.GrepPattern)
	if err != nil {
		return err
	}
	want := apps.OracleLines(om)
	got, err := outputLines(clean.OutputDir)
	if err != nil {
		return err
	}
	sort.Strings(got) // parts are each key-sorted; compare the union as a multiset
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return &Failure{cfg, "workload-oracle/output", fmt.Sprintf(
			"committed %s output (%d lines) differs from the independent oracle (%d lines)",
			cfg.Workload, len(got), len(want))}
	}

	corpusBytes, err := inputformat.TotalBytes(corpus)
	if err != nil {
		return err
	}
	if got := sum.counters.Task(mapreduce.CtrMapInputBytes); got != corpusBytes {
		return &Failure{cfg, "workload/map-input-bytes", fmt.Sprintf(
			"MAP_INPUT_BYTES=%d, corpus holds %d — chunk-spanning splits must charge every byte exactly once", got, corpusBytes)}
	}

	if cfg.Faults != nil {
		if err := checkWorkloadRecovery(cfg, work, clean.OutputDir, opts); err != nil {
			return err
		}
	}

	for _, engine := range opts.engines() {
		if engine == microbench.EngineDist {
			continue
		}
		ecfg := cfg
		ecfg.Engine = engine
		ecfg.OutputDir = ""
		ecfg.Faults = nil
		res, err := microbench.Run(ecfg)
		if err != nil {
			return err
		}
		for _, ctr := range []string{
			mapreduce.CtrMapInputRecords,
			mapreduce.CtrMapInputBytes,
			mapreduce.CtrMapOutputRecords,
			mapreduce.CtrMapOutputBytes,
			mapreduce.CtrReduceInputRecords,
			mapreduce.CtrShuffledMaps,
		} {
			if got, w := res.Report.Counters.Task(ctr), sum.counters.Task(ctr); got != w {
				return &Failure{cfg, "workload-cross-engine/counters", fmt.Sprintf(
					"%s task counter %s=%d, the real executor measured %d", engine, ctr, got, w)}
			}
		}
	}

	if cfg.Engine == microbench.EngineDist || hasEngine(opts.engines(), microbench.EngineDist) {
		dcfg := cfg
		dcfg.OutputDir = ""
		if err := checkDist(dcfg); err != nil {
			return err
		}
	}
	return nil
}

// checkHSSort holds an hssort-over-materialized-rows config to the pipeline
// invariants: the sorted output must satisfy the HSValidate checker (global
// order plus the generator's row digests), and must be byte-identical to
// what the chained HSGen → HSSort pipeline commits for the same
// (seed, maps, rows) — job N+1 reading job N's committed output is exactly
// equivalent to reading the same rows materialized up front.
func checkHSSort(cfg microbench.Config, opts CheckOptions) error {
	params, ok := strings.CutPrefix(cfg.InputSpec, "hs:")
	if !ok {
		return fmt.Errorf("mrcheck: input %q is not an hs: spec", cfg.InputSpec)
	}
	spec, err := apps.ParseHSSpec(params)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "mrcheck-hs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	direct := cfg
	direct.OutputDir = filepath.Join(work, "direct")
	if _, err := runWorkloadLocal(direct, false, opts.MutateJob); err != nil {
		return err
	}
	directDigest, err := inputformat.DirDigest(direct.OutputDir)
	if err != nil {
		return err
	}

	vcfg := microbench.Config{
		Workload:  apps.HSValidate,
		InputSpec: "dir:" + direct.OutputDir,
		OutputDir: filepath.Join(work, "verdict"),
		Slaves:    cfg.Slaves,
		SplitSize: cfg.SplitSize,
		ExtraConf: map[string]string{
			apps.ConfHSRows: strconv.FormatInt(spec.Maps*spec.Rows, 10),
			apps.ConfHSSeed: strconv.FormatInt(spec.Seed, 10),
		},
	}
	if _, err := runWorkloadLocal(vcfg, false, nil); err != nil {
		return &Failure{cfg, "hs/validate", fmt.Sprintf("sorted output rejected: %v", err)}
	}

	base := microbench.Config{
		NumMaps:     int(spec.Maps),
		PairsPerMap: spec.Rows,
		NumReduces:  cfg.NumReduces,
		Seed:        spec.Seed,
		Slaves:      cfg.Slaves,
		SplitSize:   cfg.SplitSize,
		Codec:       cfg.Codec,
		Slowstart:   cfg.Slowstart,
	}
	chain, err := mrpipe.RunHS(base, filepath.Join(work, "chain"), nil)
	if err != nil {
		return err
	}
	if chain[1].OutputDigest != directDigest {
		return &Failure{cfg, "hs/chained-identity", fmt.Sprintf(
			"chained gen->sort committed %016x, sort over materialized rows %016x — stage chaining changed the bytes",
			chain[1].OutputDigest, directDigest)}
	}

	if cfg.Faults != nil {
		if err := checkWorkloadRecovery(cfg, work, direct.OutputDir, opts); err != nil {
			return err
		}
	}
	return nil
}

// checkWorkloadRecovery reruns cfg under its fault plan and requires the
// committed output to be byte-identical to the clean run's.
func checkWorkloadRecovery(cfg microbench.Config, work, cleanDir string, opts CheckOptions) error {
	fcfg := cfg
	fcfg.OutputDir = filepath.Join(work, "faulted")
	_, err := runWorkloadLocal(fcfg, true, opts.MutateJob)
	if errors.Is(err, faultinject.ErrInjected) {
		return &SkipError{err}
	}
	if err != nil {
		return err
	}
	cleanDigest, err := inputformat.DirDigest(cleanDir)
	if err != nil {
		return err
	}
	faultDigest, err := inputformat.DirDigest(fcfg.OutputDir)
	if err != nil {
		return err
	}
	if faultDigest != cleanDigest {
		return &Failure{cfg, "workload-recovery/output",
			"committed output under injected faults differs from the clean run"}
	}
	return nil
}

// runWorkloadLocal executes a workload config on the real executor with its
// own committed output (no reducer substitution: the workload's reducer IS
// the semantics under test).
func runWorkloadLocal(cfg microbench.Config, withFaults bool, mutate func(*mapreduce.Job)) (*localSummary, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(job)
	}
	lopts := &localrun.Options{FetchBackoff: fastBackoff}
	if withFaults {
		lopts.Faults = cfg.Faults
	}
	res, err := localrun.Run(job, lopts)
	if err != nil {
		return nil, err
	}
	return &localSummary{perReduce: res.PerReduceRecords, counters: res.Counters}, nil
}

// outputLines reads every committed part file in dir as newline-separated
// "key<TAB>value" lines.
func outputLines(dir string) ([]string, error) {
	paths, err := inputformat.ListFiles(dir)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for _, ln := range strings.Split(string(data), "\n") {
			if ln != "" {
				lines = append(lines, ln)
			}
		}
	}
	return lines, nil
}
