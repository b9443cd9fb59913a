package localrun_test

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mrmicro/internal/leakcheck"
	"mrmicro/internal/localrun"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrpipe"
)

var update = flag.Bool("update", false, "rewrite testdata/exec_work.golden from the current code")

// workShapes are the small jobs testdata/exec_work.golden pins: the shapes of
// the avg-1k, rand-10b and skew-bounded benchmark workloads, and of the HS
// pipeline's three stages.
var workShapes = []struct {
	name string
	cfg  microbench.Config
	disk bool // Options.DiskShuffle
}{
	{name: "avg", cfg: microbench.Config{
		Pattern: microbench.MRAvg, DataType: "BytesWritable", KeySize: 1024, ValueSize: 1024,
		PairsPerMap: 128, NumMaps: 4, NumReduces: 4,
	}},
	{name: "rand-10b", cfg: microbench.Config{
		Pattern: microbench.MRRand, DataType: "Text", KeySize: 10, ValueSize: 10,
		PairsPerMap: 4000, NumMaps: 4, NumReduces: 4,
	}},
	{name: "skew-bounded", disk: true, cfg: microbench.Config{
		Pattern: microbench.MRSkew, DataType: "BytesWritable", KeySize: 256, ValueSize: 256,
		PairsPerMap: 6144, NumMaps: 6, NumReduces: 4,
		IOSortMB: 1, ShuffleMemBudget: 256 << 10, MergeFactor: 4, Codec: "deflate",
	}},
}

// workOpts is the schedule every golden job runs at: one map slot, one reduce
// slot and one copier, so a count that depends on which task or fetch ran
// first (the spiller's premerges, the bounded pool's spills) has one value.
func workOpts(disk bool) *localrun.Options {
	return &localrun.Options{MapParallelism: 1, ReduceParallelism: 1, ParallelCopies: 1, DiskShuffle: disk}
}

// dumpWork renders what one job did: every counter, the map and reduce
// pipelines' exact counts (no durations) and the bytes its shuffle servers
// sent through each path.
func dumpWork(b *bytes.Buffer, name string, res *localrun.Result, served localrun.ServeStats) {
	snap := res.Counters.Snapshot()
	for _, g := range slices.Sorted(maps.Keys(snap)) {
		for _, n := range slices.Sorted(maps.Keys(snap[g])) {
			fmt.Fprintf(b, "%s counter %s %s %d\n", name, g, n, snap[g][n])
		}
	}
	ms, rm := res.MapSpill, res.ReduceMerge
	fmt.Fprintf(b, "%s map_spill spills %d async_spills %d premerged_runs %d sort_comparisons %d merge_comparisons %d\n",
		name, ms.Spills, ms.AsyncSpills, ms.PremergedRuns, ms.SortComparisons, ms.MergeComparisons)
	fmt.Fprintf(b, "%s reduce_merge disk_runs %d disk_passes %d spilled_records %d spilled_bytes %d merge_comparisons %d\n",
		name, rm.DiskRuns, rm.DiskPasses, rm.SpilledRecords, rm.SpilledBytes, rm.MergeComparisons)
	fmt.Fprintf(b, "%s serve writev_bytes %d sendfile_bytes %d responses %d\n",
		name, served.WritevBytes, served.SendfileBytes, served.Responses)
}

// runWork runs one job at workOpts and dumps it.
func runWork(t *testing.T, b *bytes.Buffer, name string, cfg microbench.Config, disk bool) {
	t.Helper()
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	localrun.ResetShuffleServeStats()
	res, err := localrun.Run(job, workOpts(disk))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	dumpWork(b, name, res, localrun.ShuffleServeStats())
}

// TestExecWorkGolden holds the work the real executor does, not only the
// bytes it writes, to testdata/exec_work.golden: a change that keeps every
// output byte but sorts, merges, spills or sends more shows here. Wall time
// cannot carry that verdict on a shared machine.
//
// Every count is exact at workOpts' schedule. The skew-bounded job's reduce
// spills are the one place where timing could enter (a pool spill races the
// copier that admits the next segment); with one copier and one reduce slot
// they read the same on every run.
func TestExecWorkGolden(t *testing.T) {
	leakcheck.Check(t, 0)
	const golden = "testdata/exec_work.golden"
	var buf bytes.Buffer
	for _, shape := range workShapes {
		for _, seed := range []int64{1, 2} {
			cfg := shape.cfg
			cfg.Seed = seed
			runWork(t, &buf, fmt.Sprintf("%s/seed=%d", shape.name, seed), cfg, shape.disk)
		}
	}
	// The HS pipeline's stages, chained through files as mrpipe.RunStages
	// chains them: 3 maps of 777 rows in 4 KiB splits, sorted into 5 parts.
	stages, err := mrpipe.HSPipeline(microbench.Config{NumMaps: 3, PairsPerMap: 777, NumReduces: 5, SplitSize: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir, prev := t.TempDir(), ""
	for i, st := range stages {
		cfg := st.Config
		if prev != "" {
			cfg.InputSpec = "dir:" + prev
		}
		cfg.OutputDir = filepath.Join(dir, fmt.Sprintf("stage-%d", i))
		runWork(t, &buf, "hs/"+st.Name, cfg, false)
		prev = cfg.OutputDir
	}

	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("the work moved (rerun with -update if the move is meant):\n%s", lineDiff(string(want), buf.String()))
	}
}

// lineDiff lists the golden's lines the run did not produce and the run's
// lines the golden does not hold.
func lineDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	var b bytes.Buffer
	for _, l := range wl {
		if !slices.Contains(gl, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range gl {
		if !slices.Contains(wl, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

func splitLines(s string) []string {
	return slices.DeleteFunc(strings.Split(s, "\n"), func(l string) bool { return l == "" })
}
