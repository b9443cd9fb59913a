package rdmashuffle

import (
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/mrsim"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

func spec(name string, maps, reduces int, recsPerSeg, bytesPerRec int64, plugin mrsim.ShufflePlugin) *mrsim.JobSpec {
	parts := make([][]mrsim.SegSpec, maps)
	for m := range parts {
		parts[m] = make([]mrsim.SegSpec, reduces)
		for r := range parts[m] {
			parts[m][r] = mrsim.SegSpec{Records: recsPerSeg, Bytes: recsPerSeg * bytesPerRec}
		}
	}
	return &mrsim.JobSpec{
		Name:       name,
		Conf:       mapreduce.NewConf(),
		Partitions: parts,
		TypeFactor: 1,
		Shuffle:    plugin,
	}
}

// caseStudy runs the Fig. 8 configuration: Cluster B, 32 maps / 16 reduces.
func caseStudy(t *testing.T, slaves int, profile netsim.Profile, plugin mrsim.ShufflePlugin, totalGB int64) *mrsim.Report {
	t.Helper()
	recBytes := int64(2062)
	recs := totalGB << 30 / recBytes / (32 * 16)
	e := sim.NewEngine()
	c := cluster.ClusterB(e, slaves, profile)
	rep, err := mrsim.New(c, nil, mrsim.MRv1).Run(spec("fig8", 32, 16, recs, recBytes, plugin))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRDMABeatsIPoIBFDR(t *testing.T) {
	for _, slaves := range []int{8, 16} {
		ipoib := caseStudy(t, slaves, netsim.IPoIBFDR56, nil, 16)
		rdma := caseStudy(t, slaves, netsim.RDMAFDR56, Plugin{}, 16)
		imp := 100 * (ipoib.ExecutionSeconds() - rdma.ExecutionSeconds()) / ipoib.ExecutionSeconds()
		t.Logf("%d slaves: IPoIB=%.1fs RDMA=%.1fs improvement=%.1f%%",
			slaves, ipoib.ExecutionSeconds(), rdma.ExecutionSeconds(), imp)
		if imp <= 10 {
			t.Errorf("%d slaves: RDMA improvement %.1f%% too small (paper: 20-30%%)", slaves, imp)
		}
		if imp >= 50 {
			t.Errorf("%d slaves: RDMA improvement %.1f%% implausibly large", slaves, imp)
		}
	}
}

func TestRDMANoDiskRoundTrip(t *testing.T) {
	rep := caseStudy(t, 8, netsim.RDMAFDR56, Plugin{}, 8)
	if rep.ShuffleBytes == 0 {
		t.Fatal("no shuffle happened")
	}
	// All shuffled data stayed in memory: counters conserve records anyway.
	if rep.Counters.Task(mapreduce.CtrReduceInputRecords) != rep.Counters.Task(mapreduce.CtrMapOutputRecords) {
		t.Error("record conservation violated")
	}
}

func TestOverlapFractionClamped(t *testing.T) {
	// An overlap > 1 must not produce negative final-merge work (job would
	// still finish; sanity-check determinism and completion).
	rep := caseStudy(t, 8, netsim.RDMAFDR56, Plugin{MergeOverlapFraction: 5}, 4)
	if rep.ExecutionSeconds() <= 0 {
		t.Error("job did not complete with clamped overlap")
	}
}

func TestPluginName(t *testing.T) {
	if (Plugin{}).Name() != "mroib-rdma" {
		t.Errorf("name = %s", (Plugin{}).Name())
	}
}

func TestRDMAOnStockProfileStillWorks(t *testing.T) {
	// Using the RDMA plugin over a TCP profile is a legal ablation: the
	// pipeline helps but protocol CPU still charged by Transfer.
	rep := caseStudy(t, 8, netsim.IPoIBFDR56, Plugin{}, 4)
	if rep.ExecutionSeconds() <= 0 {
		t.Error("ablation run failed")
	}
}
