package mrsim

import (
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

// runMRv1 runs spec under MRv1 on a 10 GigE Cluster A.
func runMRv1(t *testing.T, spec *JobSpec, slaves int, tweak func(*cluster.Cluster)) *Report {
	t.Helper()
	return runJob(t, MRv1, netsim.TenGigE, slaves, spec, tweak)
}

func TestCounterConservation(t *testing.T) {
	rep := runUniform(t, MRv1, netsim.TenGigE, 4, 8, 4, 500, 2048)
	c := rep.Counters
	mo := c.Task(mapreduce.CtrMapOutputRecords)
	ri := c.Task(mapreduce.CtrReduceInputRecords)
	if mo != ri || mo != 8*4*500 {
		t.Errorf("records: map out %d, reduce in %d, want %d", mo, ri, 8*4*500)
	}
	if got := c.Task(mapreduce.CtrShuffledMaps); got != 32 {
		t.Errorf("shuffled maps = %d", got)
	}
	// All intermediate bytes must have been shuffled (local or remote).
	if rep.ShuffleBytes != 8*4*500*2048 {
		t.Errorf("shuffle bytes = %d, want %d", rep.ShuffleBytes, 8*4*500*2048)
	}
}

func TestSkewGatesJob(t *testing.T) {
	// Reducer 0 takes half of everything: its completion should gate the
	// job well past the uniform case.
	maps, reduces := 16, 8
	perMap := int64(256 << 20) // 256 MB/map -> 4 GB total
	recBytes := int64(2048)
	rep := runJob(t, MRv1, netsim.OneGigE, 4, skewSpec(maps, reduces, perMap), nil)
	uni := runUniform(t, MRv1, netsim.OneGigE, 4, maps, reduces, perMap/recBytes/int64(reduces), recBytes)
	if rep.ExecutionSeconds() < 1.4*uni.ExecutionSeconds() {
		t.Errorf("skewed job %.1fs should be >= 1.4x uniform %.1fs",
			rep.ExecutionSeconds(), uni.ExecutionSeconds())
	}
}

func TestMoreTasksFinishFaster(t *testing.T) {
	// Fig. 5's effect: 8M-4R beats 4M-2R for the same total data.
	total := int64(4 << 30)
	rec := int64(2048)
	t84 := runUniform(t, MRv1, netsim.IPoIBQDR32, 4, 8, 4, total/rec/(8*4), rec).ExecutionSeconds()
	t42 := runUniform(t, MRv1, netsim.IPoIBQDR32, 4, 4, 2, total/rec/(4*2), rec).ExecutionSeconds()
	if t84 >= t42 {
		t.Errorf("8M-4R (%.1fs) should beat 4M-2R (%.1fs)", t84, t42)
	}
}

func TestSlowstartRespected(t *testing.T) {
	// With slowstart = 1.0, no reducer may start (and thus no shuffle) until
	// every map is done; shuffle is fully exposed.
	spec := uniformSpec("late", 8, 4, 1000, 1024)
	spec.Conf.SetFloat(mapreduce.ConfSlowstartMaps, 1.0)
	rep := runJob(t, MRv1, netsim.OneGigE, 4, spec, nil)
	if rep.ShuffleEnd <= rep.MapPhaseEnd {
		t.Error("shuffle finished before maps with slowstart=1.0")
	}
}

func TestZeroByteSegments(t *testing.T) {
	// Degenerate: all data to reducer 0, others get nothing — must not hang.
	parts := make([][]SegSpec, 4)
	for m := range parts {
		parts[m] = make([]SegSpec, 4)
		parts[m][0] = SegSpec{Records: 1000, Bytes: 1000 * 512}
	}
	rep := runJob(t, MRv1, netsim.OneGigE, 2, &JobSpec{Name: "lop", Conf: mapreduce.NewConf(), Partitions: parts, TypeFactor: 1}, nil)
	if rep.ExecutionSeconds() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestConcurrentJobsShareCluster(t *testing.T) {
	// Two jobs launched together on one cluster contend for cores, disks
	// and the fabric; each must finish later than it would alone.
	solo := runUniform(t, MRv1, netsim.TenGigE, 4, 8, 4, 2000, 1024).ExecutionSeconds()

	e := sim.NewEngine()
	eng := New(cluster.ClusterA(e, 4, netsim.TenGigE), nil, MRv1)
	a, err := eng.Start(uniformSpec("jobA", 8, 4, 2000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Start(uniformSpec("jobB", 8, 4, 2000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	repA := a.Wait(nil).(*Report)
	repB := b.Wait(nil).(*Report)
	for name, rep := range map[string]*Report{"A": repA, "B": repB} {
		if rep.ExecutionSeconds() <= solo {
			t.Errorf("job %s with contention (%.1fs) not slower than solo (%.1fs)",
				name, rep.ExecutionSeconds(), solo)
		}
	}
	// Both jobs' accounting stays intact under contention.
	if repA.ShuffleBytes != repB.ShuffleBytes {
		t.Error("concurrent jobs shuffled different volumes for identical specs")
	}
}

func TestCompressionTradeoffByNetwork(t *testing.T) {
	// Intermediate compression trades CPU for wire bytes: on 1GigE the
	// halved shuffle should pay for the codec; on IPoIB QDR the network is
	// fast enough that the benefit shrinks (the paper's data-type
	// discussion makes exactly this byte-count argument).
	run := func(prof netsim.Profile, compress bool) float64 {
		spec := uniformSpec("z", 16, 8, 32768, 2048) // 16 GB shuffle
		if compress {
			spec.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
		}
		return runJob(t, MRv1, prof, 4, spec, nil).ExecutionSeconds()
	}
	slowPlain, slowZ := run(netsim.OneGigE, false), run(netsim.OneGigE, true)
	fastPlain, fastZ := run(netsim.IPoIBQDR32, false), run(netsim.IPoIBQDR32, true)
	if slowZ >= slowPlain {
		t.Errorf("compression should help 1GigE: %.1fs -> %.1fs", slowPlain, slowZ)
	}
	gainSlow := (slowPlain - slowZ) / slowPlain
	gainFast := (fastPlain - fastZ) / fastPlain
	if gainFast >= gainSlow {
		t.Errorf("compression gain on QDR (%.1f%%) should be below 1GigE (%.1f%%)",
			100*gainFast, 100*gainSlow)
	}
	t.Logf("compression gain: 1GigE %.1f%%, QDR %.1f%%", 100*gainSlow, 100*gainFast)
}

func TestCompressionShrinksShuffleBytes(t *testing.T) {
	spec := uniformSpec("zb", 8, 4, 1000, 1024)
	spec.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
	spec.Conf.SetFloat(mapreduce.ConfCompressRatio, 0.4)
	rep := runMRv1(t, spec, 4, nil)
	want := int64(float64(spec.TotalShuffleBytes()) * 0.4)
	tol := want / 20
	if rep.ShuffleBytes < want-tol || rep.ShuffleBytes > want+tol {
		t.Errorf("wire bytes = %d, want ~%d (ratio 0.4)", rep.ShuffleBytes, want)
	}
}

func TestMapFailureRetriedAndJobCompletes(t *testing.T) {
	clean := runMRv1(t, uniformSpec("clean", 8, 4, 1000, 1024), 4, nil)

	spec := uniformSpec("faulty", 8, 4, 1000, 1024)
	spec.MapFailures = map[int]int{2: 1, 5: 2} // map 2 dies once, map 5 twice
	faulty := runMRv1(t, spec, 4, nil)

	if faulty.ExecutionSeconds() <= clean.ExecutionSeconds() {
		t.Errorf("faulty job %.1fs should be slower than clean %.1fs",
			faulty.ExecutionSeconds(), clean.ExecutionSeconds())
	}
	// Counters still conserve: the winning attempts shuffled everything.
	if faulty.Counters.Task(mapreduce.CtrMapOutputRecords) != clean.Counters.Task(mapreduce.CtrMapOutputRecords) {
		t.Error("record conservation violated under failures")
	}
}

func TestReduceFailureRetried(t *testing.T) {
	spec := uniformSpec("rfault", 8, 4, 1000, 1024)
	spec.ReduceFailures = map[int]int{0: 1}
	rep := runMRv1(t, spec, 4, nil)
	if rep.ExecutionSeconds() <= 0 {
		t.Fatal("job did not complete")
	}
	if rep.ShuffleBytes != spec.TotalShuffleBytes()*1 && rep.ShuffleBytes < spec.TotalShuffleBytes() {
		t.Errorf("shuffle bytes %d below job volume %d", rep.ShuffleBytes, spec.TotalShuffleBytes())
	}
}

func TestRepeatedFailuresStillConverge(t *testing.T) {
	spec := uniformSpec("flaky", 4, 2, 500, 512)
	spec.MapFailures = map[int]int{0: 3, 1: 3, 2: 3, 3: 3}
	spec.ReduceFailures = map[int]int{0: 2, 1: 2}
	rep := runMRv1(t, spec, 2, nil)
	if rep.ExecutionSeconds() <= 0 {
		t.Fatal("job did not complete under repeated failures")
	}
}

// straggle slows one slave's cores (a degraded node, the scenario
// speculative execution exists for).
func straggle(c *cluster.Cluster, nodeIdx int, factor float64) {
	n := c.Node(nodeIdx)
	n.Spec.SpeedFactor *= factor
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	mk := func(speculative bool) *JobSpec {
		s := uniformSpec("strag", 16, 4, 4000, 1024)
		if speculative {
			s.Conf.SetBool(mapreduce.ConfSpeculative, true)
		}
		return s
	}
	slow := func(c *cluster.Cluster) { straggle(c, 1, 0.15) }

	without := runMRv1(t, mk(false), 4, slow)
	with := runMRv1(t, mk(true), 4, slow)

	if with.ExecutionSeconds() >= without.ExecutionSeconds() {
		t.Errorf("speculation did not help: with=%.1fs without=%.1fs",
			with.ExecutionSeconds(), without.ExecutionSeconds())
	}
	t.Logf("straggler node: without speculation %.1fs, with %.1fs (%.0f%% faster)",
		without.ExecutionSeconds(), with.ExecutionSeconds(),
		100*(without.ExecutionSeconds()-with.ExecutionSeconds())/without.ExecutionSeconds())
}

func TestSpeculationOffByDefault(t *testing.T) {
	spec := uniformSpec("nospec", 8, 4, 1000, 1024)
	rep := runMRv1(t, spec, 4, func(c *cluster.Cluster) { straggle(c, 1, 0.3) })
	if rep.ExecutionSeconds() <= 0 {
		t.Fatal("no run")
	}
	// No duplicate attempts were launched: every map ran exactly once.
	if maps := rep.TasksOf(mapreduce.TaskMap); len(maps) != spec.NumMaps() {
		t.Errorf("%d map attempts for %d maps", len(maps), spec.NumMaps())
	}
}

func TestSpeculationNoHarmOnHealthyCluster(t *testing.T) {
	plain := uniformSpec("healthy", 16, 8, 2000, 1024)
	spec := uniformSpec("healthy-spec", 16, 8, 2000, 1024)
	spec.Conf.SetBool(mapreduce.ConfSpeculative, true)
	a := runMRv1(t, plain, 4, nil)
	b := runMRv1(t, spec, 4, nil)
	// Homogeneous cluster: speculation should change little (within 15%).
	ratio := b.ExecutionSeconds() / a.ExecutionSeconds()
	if ratio > 1.15 {
		t.Errorf("speculation hurt a healthy cluster: %.2fx", ratio)
	}
}

func TestFaultsWithYarnScheduler(t *testing.T) {
	// MRv1's side of fault determinism: the same faulty spec twice ends at
	// the same time (TestYarnRequeuesFailedContainers runs faults on YARN).
	spec1 := uniformSpec("det", 8, 4, 1000, 1024)
	spec1.MapFailures = map[int]int{1: 1}
	a := runMRv1(t, spec1, 4, nil)
	spec2 := uniformSpec("det", 8, 4, 1000, 1024)
	spec2.MapFailures = map[int]int{1: 1}
	b := runMRv1(t, spec2, 4, nil)
	if a.ExecutionSeconds() != b.ExecutionSeconds() {
		t.Error("fault handling is nondeterministic")
	}
}
