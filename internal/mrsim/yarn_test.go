package mrsim

import (
	"strings"
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

func TestYarnContainerLimitRespected(t *testing.T) {
	// Constrain NodeManagers to 2 GB: only 2 task containers fit per node
	// (AM takes 1.5 GB on node 0), so a 16-map job on 2 slaves must run in
	// waves and still complete.
	spec := uniformSpec("tight", 16, 2, 200, 512)
	spec.Conf.SetInt(mapreduce.ConfNodeMemoryMB, 2048)
	rep := runJob(t, YARN, netsim.TenGigE, 2, spec, nil)
	if rep.ExecutionSeconds() <= 0 {
		t.Fatal("job did not run")
	}

	// Same job with ample memory must be at least as fast.
	rep2 := runJob(t, YARN, netsim.TenGigE, 2, uniformSpec("roomy", 16, 2, 200, 512), nil)
	if rep2.ExecutionSeconds() > rep.ExecutionSeconds() {
		t.Errorf("roomy cluster slower: %.1f > %.1f", rep2.ExecutionSeconds(), rep.ExecutionSeconds())
	}
}

func TestYarnOversizedContainerRejected(t *testing.T) {
	spec := uniformSpec("big", 1, 1, 1, 1)
	spec.Conf.SetInt(mapreduce.ConfMapMemoryMB, 1<<20) // 1 TB container
	c := cluster.ClusterA(sim.NewEngine(), 1, netsim.OneGigE)
	if _, err := New(c, nil, YARN).Start(spec); err == nil {
		t.Error("oversized container accepted")
	}
}

func TestYarnSkewAmplifiedByReducerCount(t *testing.T) {
	// The paper's Fig. 3(c) observation: with 16 reducers, a 50 % skewed
	// reducer holds 8x the average share, so skew hurts YARN's wider jobs
	// more than MRv1's (>3x vs ~2x average-distribution time).
	skew := runJob(t, YARN, netsim.IPoIBQDR32, 8, skewSpec(32, 16, 512<<20), nil)
	avg := runUniform(t, YARN, netsim.IPoIBQDR32, 8, 32, 16, 512<<20/2048/16, 2048)
	ratio := skew.ExecutionSeconds() / avg.ExecutionSeconds()
	if ratio < 2.0 {
		t.Errorf("skew/avg ratio = %.2f, want >= 2 with 16 reducers", ratio)
	}
	t.Logf("YARN skew ratio = %.2fx", ratio)
}

func TestYarnVsMRv1SameSpecBothComplete(t *testing.T) {
	// Cross-engine sanity: identical spec, identical counters.
	repY := runJob(t, YARN, netsim.TenGigE, 4, uniformSpec("x", 8, 4, 1000, 1024), nil)
	repM := runJob(t, MRv1, netsim.TenGigE, 4, uniformSpec("x", 8, 4, 1000, 1024), nil)
	for _, name := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrReduceInputRecords, mapreduce.CtrShuffledMaps} {
		if repY.Counters.Task(name) != repM.Counters.Task(name) {
			t.Errorf("counter %s differs: yarn %d, mrv1 %d", name,
				repY.Counters.Task(name), repM.Counters.Task(name))
		}
	}
}

func TestYarnRequeuesFailedContainers(t *testing.T) {
	spec := uniformSpec("yfault", 8, 4, 1000, 1024)
	spec.MapFailures = map[int]int{0: 2, 3: 1}
	spec.ReduceFailures = map[int]int{1: 1}
	rep := runJob(t, YARN, netsim.TenGigE, 4, spec, nil)
	if rep.ExecutionSeconds() <= 0 {
		t.Fatal("faulty YARN job did not complete")
	}
	clean := runUniform(t, YARN, netsim.TenGigE, 4, 8, 4, 1000, 1024)
	if rep.ExecutionSeconds() <= clean.ExecutionSeconds() {
		t.Errorf("faults did not cost time: %.1fs vs clean %.1fs",
			rep.ExecutionSeconds(), clean.ExecutionSeconds())
	}
}

func TestYarnAMLeavesNoRoomRejected(t *testing.T) {
	// On one slave the 1536 MB AM container takes node 0 first: a job whose
	// map or reduce container no longer fits anywhere is rejected at Start,
	// naming the NodeManager key, instead of heartbeating forever.
	for _, tc := range []struct {
		slaves           int
		nodeMB, reduceMB int
		rejected         bool
	}{
		{1, 1024, 0, true},
		{1, 2048, 0, true},
		{1, 2560, 2048, true}, // the maps fit, the reduces do not
		{1, 2560, 0, false},
		{2, 1024, 0, false}, // node 1 holds every task
	} {
		spec := uniformSpec("room", 4, 2, 100, 512)
		spec.Conf.SetInt(mapreduce.ConfNodeMemoryMB, tc.nodeMB)
		if tc.reduceMB > 0 {
			spec.Conf.SetInt(mapreduce.ConfReduceMemoryMB, tc.reduceMB)
		}
		e := sim.NewEngine()
		done, err := New(cluster.ClusterA(e, tc.slaves, netsim.TenGigE), nil, YARN).Start(spec)
		switch {
		case tc.rejected && err == nil:
			t.Errorf("%+v: accepted a job the AM leaves no room for", tc)
		case tc.rejected && !strings.Contains(err.Error(), mapreduce.ConfNodeMemoryMB):
			t.Errorf("%+v: error %q does not name %s", tc, err, mapreduce.ConfNodeMemoryMB)
		case !tc.rejected && err != nil:
			t.Errorf("%+v: %v", tc, err)
		case !tc.rejected:
			e.Run()
			if rep := done.Wait(nil).(*Report); rep.ExecutionSeconds() <= 0 {
				t.Errorf("%+v: job did not run", tc)
			}
		}
	}
}
