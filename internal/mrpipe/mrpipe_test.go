package mrpipe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/apps"
	"mrmicro/internal/distrun"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// TestMain lets the dist-engine tests spawn real worker processes: the pool
// re-executes this test binary and MaybeWorker turns those copies into
// workers instead of running the suite again.
func TestMain(m *testing.M) {
	distrun.MaybeWorker()
	os.Exit(m.Run())
}

func corpusDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func goldenPath(workload string) string {
	return filepath.Join("testdata", "golden", workload+".golden")
}

// goldenOracle renders the committed corpus's expected output for workload,
// computed by the independent in-process oracle.
func goldenOracle(t *testing.T, workload string) string {
	t.Helper()
	m, err := apps.Oracle(workload, corpusDir(t), "data")
	if err != nil {
		t.Fatal(err)
	}
	lines := apps.OracleLines(m)
	return strings.Join(lines, "\n") + "\n"
}

// TestGoldenSync pins the checked-in golden files to the oracle: the golden
// bytes are the oracle's answer, so a drifting oracle (or tokenizer) breaks
// this test rather than silently moving the target the engines are checked
// against. Regenerate with MRMICRO_WRITE_GOLDEN=1 go test -run TestGoldenSync.
func TestGoldenSync(t *testing.T) {
	for _, w := range []string{apps.WordCount, apps.Grep, apps.InvIndex} {
		want := goldenOracle(t, w)
		if os.Getenv("MRMICRO_WRITE_GOLDEN") != "" {
			if err := os.WriteFile(goldenPath(w), []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(goldenPath(w))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with MRMICRO_WRITE_GOLDEN=1)", w, err)
		}
		if string(got) != want {
			t.Errorf("%s golden drifted from oracle; regenerate with MRMICRO_WRITE_GOLDEN=1", w)
		}
	}
}

// concatParts joins a committed output directory's part files in name order.
func concatParts(t *testing.T, dir string) string {
	t.Helper()
	paths, err := inputformat.ListFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}

// TestWorkloadsGoldenLocalAndDist runs each workload over the committed
// corpus on both real engines in one test: localrun's committed bytes must
// equal the golden file (and hence the oracle), and the distributed run's
// per-reduce output digests and committed bytes must equal localrun's. The
// tiny split size forces records to straddle split boundaries, so the
// chunk-spanning reader is on the critical path of every assertion.
func TestWorkloadsGoldenLocalAndDist(t *testing.T) {
	leakcheck.Check(t, leakcheck.ReapGrace)
	for _, w := range []string{apps.WordCount, apps.Grep, apps.InvIndex} {
		t.Run(w, func(t *testing.T) {
			cfg := microbench.Config{
				Workload:   w,
				InputSpec:  "dir:" + corpusDir(t),
				SplitSize:  64,
				NumReduces: 1,
				OutputDir:  filepath.Join(t.TempDir(), "local-out"),
			}
			oracle, err := distrun.LocalOracle(cfg)
			if err != nil {
				t.Fatalf("localrun: %v", err)
			}
			if got, want := concatParts(t, cfg.OutputDir), goldenOracle(t, w); got != want {
				t.Fatalf("localrun output != golden\ngot:\n%s\nwant:\n%s", got, want)
			}

			dcfg := cfg
			dcfg.OutputDir = filepath.Join(t.TempDir(), "dist-out")
			dres, err := distrun.Run(dcfg, &distrun.Options{Workers: 2, Digest: true})
			if err != nil {
				t.Fatalf("distrun: %v", err)
			}
			if dres.JobDigest != oracle.JobDigest {
				t.Errorf("dist job digest %016x != localrun %016x", dres.JobDigest, oracle.JobDigest)
			}
			ld, err := inputformat.DirDigest(cfg.OutputDir)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := inputformat.DirDigest(dcfg.OutputDir)
			if err != nil {
				t.Fatal(err)
			}
			if ld != dd {
				t.Errorf("dist committed bytes differ from localrun: %016x != %016x", dd, ld)
			}
		})
	}
}

// TestWordCountMultiReduceDist checks the engines also agree with more than
// one reduce task, where output is spread across parts by the hash
// partitioner (digests compare per-reduce streams, not a global sort).
func TestWordCountMultiReduceDist(t *testing.T) {
	leakcheck.Check(t, leakcheck.ReapGrace)
	cfg := microbench.Config{
		Workload:   apps.WordCount,
		InputSpec:  "dir:" + corpusDir(t),
		SplitSize:  48,
		NumReduces: 3,
		Combine:    true,
		OutputDir:  filepath.Join(t.TempDir(), "local-out"),
	}
	oracle, err := distrun.LocalOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.OutputDir = filepath.Join(t.TempDir(), "dist-out")
	dres, err := distrun.Run(dcfg, &distrun.Options{Workers: 2, Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	if dres.JobDigest != oracle.JobDigest {
		t.Errorf("dist job digest %016x != localrun %016x", dres.JobDigest, oracle.JobDigest)
	}
}

// validateVerdict extracts the hsvalidate stage's committed verdict line.
func validateVerdict(t *testing.T, results []StageResult) string {
	t.Helper()
	last := results[len(results)-1]
	if last.Name != apps.HSValidate {
		t.Fatalf("last stage is %s, want %s", last.Name, apps.HSValidate)
	}
	return concatParts(t, last.Config.OutputDir)
}

// TestHSPipelineLocal runs the full gen → sort → validate chain in-process
// and checks the validator's verdict accounts for every generated row, and
// that the sampled cut points spread the rows over the sort's reducers.
func TestHSPipelineLocal(t *testing.T) {
	leakcheck.Check(t, 0)
	const rows = 120
	base := microbench.Config{NumMaps: 3, PairsPerMap: rows / 3, NumReduces: 3, Seed: 7, SplitSize: 256}
	results, err := RunHS(base, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d stage results, want 3", len(results))
	}
	verdict := validateVerdict(t, results)
	if want := fmt.Sprintf("ok rows=%d", rows); !strings.Contains(verdict, want) {
		t.Errorf("validator verdict %q does not account for all %d rows", verdict, rows)
	}
	for _, r := range results {
		if r.OutputDigest == 0 {
			t.Errorf("stage %s committed no output", r.Name)
		}
	}
	// Each sorted part holds one row per line; every reducer must get at
	// least a quarter of an even share.
	parts, err := inputformat.ListFiles(results[1].Config.OutputDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != base.NumReduces {
		t.Fatalf("sort committed %d parts, want %d", len(parts), base.NumReduces)
	}
	for _, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n < rows/base.NumReduces/4 {
			t.Errorf("%s holds only %d of %d rows (poor balance)", filepath.Base(p), n, rows)
		}
	}
}

// TestHSPipelineUnderFaults runs the whole pipeline under a seeded plan of
// map failures, reduce failures and shuffle drops: the plan must strike the
// sort, and recovery must leave HSValidate passing and the sorted output
// byte-identical to a clean run's.
func TestHSPipelineUnderFaults(t *testing.T) {
	leakcheck.Check(t, 0)
	base := microbench.Config{NumMaps: 3, PairsPerMap: 200, NumReduces: 3, Seed: 7}
	clean, err := RunHS(base, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("clean pipeline: %v", err)
	}
	// Half of all task attempts fail, so the sort's six tasks cannot all
	// escape; eight attempts per task keep an exhausted task improbable.
	base.Faults = &faultinject.Plan{Seed: 7, MapFailureRate: 0.5, ReduceFailureRate: 0.5, ShuffleDropRate: 0.2, MaxTaskAttempts: 8}
	faulty, err := RunHS(base, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("pipeline under faults: %v", err)
	}
	verdict := validateVerdict(t, faulty)
	if want := validateVerdict(t, clean); !strings.Contains(verdict, "ok rows=600") || verdict != want {
		t.Errorf("validator verdict under faults %q, clean %q", verdict, want)
	}
	sorted := faulty[1]
	if sorted.Name != apps.HSSort {
		t.Fatalf("stage 1 is %s, want %s", sorted.Name, apps.HSSort)
	}
	if sorted.OutputDigest != clean[1].OutputDigest {
		t.Errorf("hssort digest %016x under faults, %016x clean", sorted.OutputDigest, clean[1].OutputDigest)
	}
	c := sorted.Counters
	failed := c.Fault(mapreduce.CtrMapAttemptsFailed) + c.Fault(mapreduce.CtrReduceAttemptsFailed)
	if failed == 0 {
		t.Errorf("no hssort attempt failed: the plan did not strike (fetch failures %d)", c.Fault(mapreduce.CtrShuffleFetchFailures))
	}
	t.Logf("hssort survived: map attempts failed=%d reduce attempts failed=%d fetch failures=%d",
		c.Fault(mapreduce.CtrMapAttemptsFailed), c.Fault(mapreduce.CtrReduceAttemptsFailed), c.Fault(mapreduce.CtrShuffleFetchFailures))
}

// TestHSPipelineDistMatchesLocalAndMaterialized is the chained-job identity
// check, three ways: the sorted output of (a) the local chained pipeline,
// (b) the distributed chained pipeline, and (c) a sort run directly over an
// "hs:" materialization of the generator's rows must be byte-identical —
// same part names, same bytes. (a)=(c) proves chaining hands the next stage
// exactly the bytes the generator defines; (a)=(b) proves the distributed
// runtime sorts them identically.
func TestHSPipelineDistMatchesLocalAndMaterialized(t *testing.T) {
	leakcheck.Check(t, leakcheck.ReapGrace)
	base := microbench.Config{NumMaps: 3, PairsPerMap: 40, NumReduces: 3, Seed: 11, SplitSize: 256}

	local, err := RunHS(base, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("local pipeline: %v", err)
	}
	dist, err := RunHS(base, t.TempDir(), &Options{Dist: true, Workers: 2})
	if err != nil {
		t.Fatalf("dist pipeline: %v", err)
	}
	if local[1].OutputDigest != dist[1].OutputDigest {
		t.Errorf("dist sorted output %016x != local %016x", dist[1].OutputDigest, local[1].OutputDigest)
	}

	direct := base
	direct.Workload = apps.HSSort
	direct.InputSpec = fmt.Sprintf("hs:seed=%d,maps=%d,rows=%d", base.Seed, base.NumMaps, base.PairsPerMap)
	mat, err := RunStages([]Stage{{Name: "sort-materialized", Config: direct}}, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("materialized sort: %v", err)
	}
	if mat[0].OutputDigest != local[1].OutputDigest {
		t.Errorf("sort over materialized rows %016x != chained %016x", mat[0].OutputDigest, local[1].OutputDigest)
	}
}

// corruptedSort runs gen+sort and flips the first sorted row's first
// payload byte: ordering still holds, but the row digest no longer matches
// the generator's. It returns the validate stage, pointed at that output.
func corruptedSort(t *testing.T) Stage {
	t.Helper()
	base := microbench.Config{NumMaps: 2, PairsPerMap: 30, NumReduces: 2, Seed: 3}
	stages, err := HSPipeline(base)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunStages(stages[:2], t.TempDir(), nil)
	if err != nil {
		t.Fatalf("gen+sort: %v", err)
	}
	sortedDir := results[1].Config.OutputDir
	parts, err := inputformat.ListFiles(sortedDir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[strings.IndexByte(string(data), '\t')+1] ^= 1
	if err := os.WriteFile(parts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	validate := stages[2]
	validate.Config.InputSpec = "dir:" + sortedDir
	return validate
}

// TestPipelineFailsOnCorruptedSort proves HSValidate is a real checker: a
// sorted directory with one corrupted row must fail the validate job.
func TestPipelineFailsOnCorruptedSort(t *testing.T) {
	leakcheck.Check(t, 0)
	validate := corruptedSort(t)
	_, err := RunStages([]Stage{validate}, t.TempDir(), &Options{})
	if err == nil || !strings.Contains(err.Error(), "hsvalidate") {
		t.Fatalf("validate accepted corrupted rows (err=%v)", err)
	}
}

// TestFailedJobLeavesNoWriterBehind: a job that fails after its output
// writers opened — HSValidate over a corrupted sort, whose every reduce
// attempt fails at Close, and a map-only job whose mapper fails mid-split —
// leaves no file descriptor open and nothing, not even a dot-prefixed temp
// part, in its output directory; so does the map-only job under a fault
// plan, where every map's two attempts fail.
func TestFailedJobLeavesNoWriterBehind(t *testing.T) {
	leakcheck.Check(t, 0)
	validate := corruptedSort(t)
	for _, tc := range []struct {
		name string
		run  func(outDir string) error
	}{
		{"hsvalidate over a corrupted sort", func(outDir string) error {
			v := validate
			v.Config.OutputDir = outDir
			_, err := RunStages([]Stage{v}, t.TempDir(), nil)
			return err
		}},
		{"map-only mapper failing mid-split", func(outDir string) error {
			return runFailingMapOnly(outDir, &localrun.Options{})
		}},
		{"map-only mapper failing mid-split under a fault plan", func(outDir string) error {
			// Both attempts of every map fail: each retry must abort its
			// writer as the first attempt did.
			plan := &faultinject.Plan{Seed: 3, MapFailureRate: 0.3, ShuffleDropRate: 0.2, MaxTaskAttempts: 2}
			return runFailingMapOnly(outDir, &localrun.Options{Faults: plan})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outDir := filepath.Join(t.TempDir(), "out")
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				t.Fatal(err)
			}
			leakcheck.Check(t, 0)
			if err := tc.run(outDir); err == nil {
				t.Fatal("job succeeded")
			}
			left, err := os.ReadDir(outDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("failed job left %s in its output directory", e.Name())
			}
		})
	}
}

// runFailingMapOnly runs the hsgen job into outDir with a mapper that fails
// every attempt at its eleventh row, after the attempt's writer has opened
// and taken rows.
func runFailingMapOnly(outDir string, opts *localrun.Options) error {
	job, err := microbench.BuildJob(microbench.Config{
		Workload: apps.HSGen, NumMaps: 3, PairsPerMap: 50, Seed: 3, OutputDir: outDir,
	})
	if err != nil {
		return err
	}
	gen := job.Mapper
	job.Mapper = func() mapreduce.Mapper {
		m, rows := gen(), 0
		return mapreduce.MapperFunc(func(k, v writable.Writable, out mapreduce.Collector, rep mapreduce.Reporter) error {
			if rows++; rows > 10 {
				return fmt.Errorf("mapper fails at row %d", rows)
			}
			return m.Map(k, v, out, rep)
		})
	}
	_, err = localrun.Run(job, opts)
	return err
}

// TestFailedPipelineJoinsDigests: each stage's output digest runs while
// the next stage does; when a later stage fails, RunStages still returns
// only after the completed stages' digests are in.
func TestFailedPipelineJoinsDigests(t *testing.T) {
	leakcheck.Check(t, 0)
	stages, err := HSPipeline(microbench.Config{NumMaps: 2, PairsPerMap: 30, NumReduces: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stages[2].Config.ExtraConf[apps.ConfHSRows] = "59" // the generator wrote 60
	results, err := RunStages(stages, t.TempDir(), nil)
	if err == nil || !strings.Contains(err.Error(), "60 rows in sorted output, generator wrote 59") {
		t.Fatalf("err = %v, want the validate stage's row-count failure", err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want the 2 completed stages", len(results))
	}
	for _, r := range results {
		want, err := inputformat.DirDigest(r.Config.OutputDir)
		if err != nil {
			t.Fatal(err)
		}
		if r.OutputDigest != want {
			t.Errorf("stage %s digest %016x, directory digests to %016x", r.Name, r.OutputDigest, want)
		}
	}
}

// TestDigestFailureKeepsLaterStageError: stage 0's digest fails while
// stage 1, already running on the same directory, fails too. The pipeline
// reports both, not just the digest's I/O error.
func TestDigestFailureKeepsLaterStageError(t *testing.T) {
	leakcheck.Check(t, 0)
	stages, err := HSPipeline(microbench.Config{NumMaps: 2, PairsPerMap: 30, NumReduces: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	genDir := filepath.Join(t.TempDir(), "gen")
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A dangling link is listed as a corpus file but cannot be opened: the
	// digest of the gen output and the sort stage's splits both trip on it.
	if err := os.Symlink(filepath.Join(genDir, "missing"), filepath.Join(genDir, "zz-dangling")); err != nil {
		t.Fatal(err)
	}
	stages[0].Config.OutputDir = genDir
	results, err := RunStages(stages, t.TempDir(), nil)
	if err == nil {
		t.Fatal("pipeline over a directory with a dangling part succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "stage 0 (hsgen) output") || !strings.Contains(msg, "stage 1 (hssort)") {
		t.Fatalf("err = %v, want stage 0's digest failure and stage 1's own failure", err)
	}
	if len(results) != 0 {
		t.Fatalf("%d results, want none: stage 0's output failed to digest", len(results))
	}
}
