package mrcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mrmicro/internal/apps"
	"mrmicro/internal/distrun"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// TestMain lets this test binary double as a distrun worker process: checks
// against the dist engine (the distributed corpus repros pin it) spawn
// workers by re-executing the binary, and a spawned copy never returns from
// MaybeWorker.
func TestMain(m *testing.M) {
	distrun.MaybeWorker()
	os.Exit(m.Run())
}

// TestGenerateDeterministic: (seed, i) fully determines the config — replaying
// any iteration in isolation must reproduce it exactly.
func TestGenerateDeterministic(t *testing.T) {
	opts := GenOptions{Faults: true}
	for i := 0; i < 20; i++ {
		a := Generate(42, i, opts)
		b := Generate(42, i, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iteration %d not deterministic:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(Generate(42, 0, opts), Generate(42, 1, opts)) {
		t.Error("consecutive iterations generated identical configs")
	}
	if reflect.DeepEqual(Generate(1, 0, opts), Generate(2, 0, opts)) {
		t.Error("different seeds generated identical configs")
	}
}

// TestGeneratedConfigsValid: every config of the golden stream normalizes,
// stays under the exact-oracle draw bound, respects the byte budget (modulo
// the one-pair-per-map floor, which is all a text workload meets: its input
// sizes it), and spells each knob once: it carries no ExtraConf key a row
// owns.
func TestGeneratedConfigsValid(t *testing.T) {
	opts := GenOptions{Faults: true}
	for i := 0; i < goldenConfigs; i++ {
		cfg := Generate(goldenSeed, i, opts)
		n, err := cfg.Normalize()
		if err != nil {
			t.Fatalf("iteration %d does not normalize: %v\n%+v", i, err, cfg)
		}
		if n.PairsPerMap >= microbench.MaxExactSpecDraws {
			t.Errorf("iteration %d: %d pairs/map reaches the sampled-spec regime", i, n.PairsPerMap)
		}
		maps, pairs, pairLen := int64(n.NumMaps), n.PairsPerMap, int64(n.PairLen())
		if n.Workload == apps.HSSort {
			// hssort's maps emit the rows of its hs: input as Text pairs.
			spec, err := apps.ParseHSSpec(strings.TrimPrefix(n.InputSpec, "hs:"))
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			row, _ := microbench.SerializedPairLen("Text", len(apps.HSRowKey(0, 0)), len(apps.HSRowValue(0, 0)))
			maps, pairs, pairLen = spec.Maps, spec.Rows, int64(row)
		}
		budget := opts.maxShuffleBytes() + maps*pairLen // one-pair floor slack
		if vol := pairs * maps * pairLen; vol > budget {
			t.Errorf("iteration %d: %d shuffle bytes exceeds budget %d", i, vol, budget)
		}
		for key := range cfg.ExtraConf {
			for _, k := range microbench.Knobs {
				if slices.Contains(k.Keys, key) {
					t.Errorf("iteration %d carries ExtraConf[%q], a second spelling of -%s", i, key, k.Name)
				}
			}
		}
	}
}

// TestGeneratorCoversShrinkableRows: over the golden stream, every row the
// shrinker can simplify is off its default in at least 5% of the configs,
// so no mechanism runs only as some check's clean reference twin.
func TestGeneratorCoversShrinkableRows(t *testing.T) {
	off := map[string]int{}
	for i := 0; i < goldenConfigs; i++ {
		cfg := Generate(goldenSeed, i, GenOptions{Faults: true})
		for _, k := range microbench.Knobs {
			if !(k.Fault && cfg.Faults == nil) && k.Get(&cfg) != k.Default {
				off[k.Name]++
			}
		}
	}
	for _, k := range microbench.Knobs {
		if k.Shrink != microbench.ShrinkNone && off[k.Name]*20 < goldenConfigs {
			t.Errorf("-%s is off its default %s in %d of %d generated configs, want at least 5%%", k.Name, k.Default, off[k.Name], goldenConfigs)
		}
	}
}

// TestProperty is the go-test wiring of the property suite: a short-mode
// bounded number of generated configs, clean and fault-injected, through the
// full invariant library. A failure prints the exact repro line the CLI would.
func TestProperty(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	for _, tc := range []struct {
		name string
		gen  GenOptions
		seed int64
	}{
		{name: "clean", seed: 1},
		{name: "faults", seed: 2, gen: GenOptions{Faults: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunSuite(SuiteOptions{Seed: tc.seed, N: n, Gen: tc.gen, Log: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failure != nil {
				t.Fatalf("invariant %s: %s\nrepro: %s", res.Failure.Invariant, res.Failure.Detail, res.Repro)
			}
			if res.Checked == 0 {
				t.Error("property run checked nothing")
			}
		})
	}
}

// TestCorpusReplay replays every checked-in past-failing (or
// divergence-class) config on every go-test run, so a regression that
// resurrects an old bug fails immediately and deterministically.
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files checked in under testdata/corpus")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			cfg, err := LoadRepro(f)
			if err != nil {
				t.Fatal(err)
			}
			err = CheckConfig(cfg, CheckOptions{})
			var skip *SkipError
			if errors.As(err, &skip) {
				t.Skipf("fault plan exhausted attempts: %v", skip.Err)
			}
			if err != nil {
				t.Errorf("corpus config regressed: %v\nrepro: %s", err, ReproLine(cfg))
			}
		})
	}
}

// TestMutationCaught is the always-on vacuity guard: a deliberately flipped
// partitioner decision must trip the partition oracle, and values that reach
// a reducer in a different order on one side of a twin must trip that twin.
// The full mutation matrix lives behind the `mutation` build tag; this cheap
// variant ensures the harness can never silently pass mutated jobs.
func TestMutationCaught(t *testing.T) {
	cfg := microbench.Config{
		Pattern:     microbench.MRAvg,
		NumMaps:     2,
		NumReduces:  3,
		PairsPerMap: 50,
		KeySize:     8,
		ValueSize:   8,
		Slaves:      1,
		Seed:        1,
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*mapreduce.Job)
	}{
		{"partition-flip", "partition-oracle/localrun", FlipFirstPartition},
		{"order-swap", "spill-identity/output", swapTaskStampsWhenSyncSpill},
	} {
		err := CheckConfig(cfg, CheckOptions{
			Engines:   []microbench.Engine{}, // localrun-only keeps the guard cheap
			MutateJob: tc.mutate,
		})
		var fail *Failure
		if !errors.As(err, &fail) {
			t.Fatalf("%s: mutated job passed every invariant (err=%v) — the harness is vacuous", tc.name, err)
		}
		if fail.Invariant != tc.want {
			t.Errorf("%s caught by %s, want %s", tc.name, fail.Invariant, tc.want)
		}
	}
}

// swapTaskStampsWhenSyncSpill changes nothing but arrival order, and only on
// the -syncspill side of the spill twin: there the two maps stamp each
// other's task number. MR-AVG gives both maps the same serials per key, so
// every key group holds the same multiset of values on both sides — a fold
// that ignores order (a sum, a count, a set) cannot tell them apart.
func swapTaskStampsWhenSyncSpill(job *mapreduce.Job) {
	if job.Conf.GetBool(mapreduce.ConfSpillOverlap, true) {
		return
	}
	orig := taskPartitioner(job)
	job.PartitionerForTask = func(task int) mapreduce.Partitioner {
		inner := orig(task)
		var serial uint64
		return mapreduce.PartitionerFunc(func(k, v writable.Writable, nr int) int {
			p := inner.Partition(k, v, nr) // stampOrder's stamp lands first
			stampValue(v, 1-task, serial)
			serial++
			return p
		})
	}
}

// taskPartitioner returns the job's partitioner per map task, however the
// job names it: the synthetic jobs seed one per task, a workload's is shared
// (hash partitioning when it names none).
func taskPartitioner(job *mapreduce.Job) func(int) mapreduce.Partitioner {
	shared := job.Partitioner
	switch {
	case job.PartitionerForTask != nil:
		return job.PartitionerForTask
	case shared == nil:
		shared = func() mapreduce.Partitioner { return mapreduce.HashPartitioner{} }
	}
	return func(int) mapreduce.Partitioner { return shared() }
}

// TestShrinkSynthetic pins the shrinker's greedy minimization on a synthetic
// predicate: everything irrelevant to the predicate must collapse to floors.
func TestShrinkSynthetic(t *testing.T) {
	cfg := microbench.Config{
		Pattern: microbench.MRSkew, DataType: "Text", KeySize: 300, ValueSize: 40, PairsPerMap: 700,
		NumMaps: 8, NumReduces: 5, Slaves: 3, Seed: 77, Slowstart: 0.25, ParallelCopies: 3,
		ShuffleMemBudget: 64 << 10, MergeFactor: 3, IOSortMB: 2, SpillPercent: 0.5,
		SyncSpill: true, Codec: "deflate", Combine: true,
		ExtraConf: map[string]string{mapreduce.ConfMapSlots: "2"},
		Faults:    &faultinject.Plan{Seed: 9, ShuffleDropRate: 0.2, SpillErrorRate: 0.1},
	}
	failing := func(c microbench.Config) bool { return c.NumMaps >= 2 }
	got := Shrink(cfg, failing)
	if got.NumMaps != 2 {
		t.Errorf("NumMaps shrunk to %d, want the predicate's floor 2", got.NumMaps)
	}
	if got.Faults != nil {
		t.Error("irrelevant fault plan survived shrinking")
	}
	if got.PairsPerMap != 1 || got.NumReduces != 1 || got.KeySize != 1 || got.ValueSize != 1 || got.Slaves != 1 {
		t.Errorf("irrelevant dimensions not minimized: %+v", got)
	}
	if got.ExtraConf != nil {
		t.Error("irrelevant conf overrides survived shrinking")
	}
	if got.ShuffleMemBudget != 0 || got.MergeFactor != 0 {
		t.Errorf("irrelevant merge knobs survived shrinking: budget=%d factor=%d",
			got.ShuffleMemBudget, got.MergeFactor)
	}
	if got.Codec != "" || got.Combine || got.SyncSpill {
		t.Errorf("irrelevant mechanisms survived shrinking: codec=%q combine=%t syncspill=%t", got.Codec, got.Combine, got.SyncSpill)
	}
}

// TestShrinkRealFailure drives the whole failure path end to end: a mutated
// partitioner, shrunk to the minimal config, must still fail, and the repro
// line must replay through the mrbench/mrcheck flag vocabulary to the same
// minimal config.
func TestShrinkRealFailure(t *testing.T) {
	check := CheckOptions{
		Engines:   []microbench.Engine{},
		MutateJob: FlipFirstPartition,
	}
	cfg := microbench.Config{
		Pattern:     microbench.MRRand,
		NumMaps:     4,
		NumReduces:  3,
		PairsPerMap: 200,
		KeySize:     64,
		ValueSize:   128,
		Slaves:      2,
		Seed:        99,
	}
	fail := ShrinkFailure(cfg, check)
	if fail.Invariant == "unstable" {
		t.Fatalf("failure did not reproduce while shrinking: %s", fail.Detail)
	}
	min := fail.Config
	// The flip needs >= 2 reducers and >= 1 pair on map 0; everything else
	// must be at its floor.
	if min.NumMaps != 1 || min.NumReduces != 2 || min.PairsPerMap != 1 {
		t.Errorf("not minimal: maps=%d reduces=%d pairs=%d", min.NumMaps, min.NumReduces, min.PairsPerMap)
	}
	if min.KeySize != 1 || min.ValueSize != 1 {
		t.Errorf("payload sizes not minimized: key=%d value=%d", min.KeySize, min.ValueSize)
	}

	parsed, err := microbench.ParseRepro(min.ReproFlags())
	if err != nil {
		t.Fatal(err)
	}
	gotN, err1 := parsed.Normalize()
	wantN, err2 := min.Normalize()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(gotN, wantN) {
		t.Errorf("repro flags do not round-trip the shrunk config:\n%+v\nvs\n%+v", gotN, wantN)
	}
	if CheckConfig(parsed, check) == nil {
		t.Error("replayed repro config no longer fails")
	}
}

// TestOracleMatchesSpec cross-checks the oracle against BuildSpec on fixed
// configs per pattern — the oracle is the invariant library's foundation.
func TestOracleMatchesSpec(t *testing.T) {
	for _, pattern := range microbench.Patterns() {
		cfg, err := microbench.Config{
			Pattern:     pattern,
			NumMaps:     3,
			NumReduces:  4,
			PairsPerMap: 1000,
			KeySize:     8,
			ValueSize:   8,
			Slaves:      1,
			Seed:        5,
		}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := microbench.BuildSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle, _ := oracleMatrix(cfg)
		for m := range oracle {
			for r := range oracle[m] {
				if got := spec.Partitions[m][r].Records; got != oracle[m][r] {
					t.Errorf("%s: spec[%d][%d]=%d, oracle says %d", pattern, m, r, got, oracle[m][r])
				}
			}
		}
	}
}

// FlipFirstPartition is the canonical mutation: map task 0's first partition
// decision is rotated to the next reducer. Exported for the build-tag-gated
// mutation matrix and the verify recipe's self-check.
func FlipFirstPartition(job *mapreduce.Job) {
	orig := taskPartitioner(job)
	job.PartitionerForTask = func(mapTask int) mapreduce.Partitioner {
		p := orig(mapTask)
		if mapTask != 0 {
			return p
		}
		first := true
		return mapreduce.PartitionerFunc(func(k, v writable.Writable, numReduces int) int {
			d := p.Partition(k, v, numReduces)
			if first && numReduces > 1 {
				first = false
				d = (d + 1) % numReduces
			}
			return d
		})
	}
}

// TestWorkloadProperty is the acceptance run for the real-input workload
// invariants: 200 generated workload configurations (seeded, replayable
// through the same stream) through the workload-oracle, input-accounting,
// recovery, and chained-pipeline identity invariants. The run is sharded
// across parallel subtests; each shard replays in isolation from its seed.
// The cross-engine counter twins ride the main TestProperty stream instead
// (workloads ride along on a fifth of it), keeping this run localrun-focused
// and cheap per config.
func TestWorkloadProperty(t *testing.T) {
	const shards = 4
	n := 200 / shards
	if testing.Short() {
		n = 8
	}
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			res, err := RunSuite(SuiteOptions{
				Seed:  1000 + int64(s),
				N:     n,
				Gen:   GenOptions{WorkloadOnly: true, Faults: true},
				Check: CheckOptions{Engines: []microbench.Engine{}},
				Log:   t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failure != nil {
				t.Fatalf("invariant %s: %s\nrepro: %s", res.Failure.Invariant, res.Failure.Detail, res.Repro)
			}
			if res.Checked == 0 {
				t.Error("workload property run checked nothing")
			}
		})
	}
}

// TestWorkloadMutationCaught is the workload harness's vacuity guard: a
// flipped partition decision in a multi-reduce wordcount splits one key's
// counts across two reduce tasks, committing two partial-count lines where
// the oracle has one — the workload-oracle identity must catch it.
func TestWorkloadMutationCaught(t *testing.T) {
	cfg := microbench.Config{
		Workload:   apps.WordCount,
		InputSpec:  "text:seed=5,files=1,bytes=1024,shape=words",
		NumReduces: 3,
		Slaves:     1,
	}
	mutate := func(job *mapreduce.Job) {
		job.PartitionerForTask = func(mapTask int) mapreduce.Partitioner {
			first := mapTask == 0
			return mapreduce.PartitionerFunc(func(k, v writable.Writable, nr int) int {
				d := mapreduce.HashPartitioner{}.Partition(k, v, nr)
				if first && nr > 1 {
					first = false
					d = (d + 1) % nr
				}
				return d
			})
		}
	}
	err := CheckConfig(cfg, CheckOptions{Engines: []microbench.Engine{}, MutateJob: mutate})
	var fail *Failure
	if !errors.As(err, &fail) {
		t.Fatalf("mutated workload job passed every invariant (err=%v) — the workload harness is vacuous", err)
	}
	if fail.Invariant != "workload-oracle/output" {
		t.Errorf("flip caught by %s, want workload-oracle/output", fail.Invariant)
	}
}

// TestShrinkIsolatesAnyFaultRate: the zero-one-rate step walks every
// fault-rate row of the knob table, so a failure that needs only a
// process-level rate (which the in-process sites never shared a list with)
// shrinks to a plan holding that single rate.
func TestShrinkIsolatesAnyFaultRate(t *testing.T) {
	for _, rate := range []string{"fault-worker-kill", "fault-partition", "fault-spill"} {
		k := microbench.KnobByName(rate)
		cfg := microbench.Config{Pattern: microbench.MRRand, NumMaps: 3, NumReduces: 2, PairsPerMap: 40, Slaves: 1, Seed: 1}
		cfg.Faults = &faultinject.Plan{
			Seed: 5, MapFailureRate: 0.2, ReduceFailureRate: 0.2, ShuffleDropRate: 0.2, ShuffleTruncateRate: 0.2,
			ShuffleSlowRate: 0.2, SpillErrorRate: 0.2, WorkerKillRate: 0.2, PartitionRate: 0.2,
		}
		got := Shrink(cfg, func(c microbench.Config) bool { return c.Faults != nil && k.Get(&c) != "0" })
		want := microbench.Config{Faults: &faultinject.Plan{Seed: 5}}
		if err := k.Set(&want, "0.2"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Faults, want.Faults) {
			t.Errorf("needing only -%s, the plan shrank to %+v, want %+v", rate, got.Faults, want.Faults)
		}
	}
}

// TestBoundedTwinFollowsEitherSpelling: a shuffle budget spelled through
// -conf is the same configuration as -shufflemem, so the bounded-identity
// twin runs for it too — the checker executes the same number of localrun
// jobs either way. (The override used to reach the engines while the
// checker's predicate read the untouched field and skipped the twin.)
func TestBoundedTwinFollowsEitherSpelling(t *testing.T) {
	base := microbench.Config{
		Pattern: microbench.MRRand, NumMaps: 3, NumReduces: 2, PairsPerMap: 40,
		KeySize: 8, ValueSize: 8, Slaves: 1, Seed: 1,
	}
	jobs := func(cfg microbench.Config) int {
		n := 0
		opts := CheckOptions{Engines: []microbench.Engine{}, MutateJob: func(*mapreduce.Job) { n++ }}
		if err := CheckConfig(cfg, opts); err != nil {
			t.Fatal(err)
		}
		return n
	}
	unbounded := jobs(base)
	flag, conf := base, base
	flag.ShuffleMemBudget = 4096
	conf.ExtraConf = map[string]string{mapreduce.ConfShuffleInputBufBytes: "4096"}
	if f, c := jobs(flag), jobs(conf); f != unbounded+1 || c != f {
		t.Errorf("localrun jobs: %d unbounded, %d with -shufflemem 4096, %d with the budget through -conf; want the bounded twin (one more job) for both spellings", unbounded, f, c)
	}
}
