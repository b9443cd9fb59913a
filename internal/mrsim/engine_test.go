package mrsim

import (
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

// runJob runs spec under s on a fresh Cluster A of the given slaves and
// fabric; tweak, if set, alters the cluster first.
func runJob(t *testing.T, s Scheduler, profile netsim.Profile, slaves int, spec *JobSpec, tweak func(*cluster.Cluster)) *Report {
	t.Helper()
	c := cluster.ClusterA(sim.NewEngine(), slaves, profile)
	if tweak != nil {
		tweak(c)
	}
	rep, err := New(c, nil, s).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runUniform runs a uniformSpec job under s.
func runUniform(t *testing.T, s Scheduler, profile netsim.Profile, slaves, maps, reduces int, recsPerSeg, bytesPerRec int64) *Report {
	t.Helper()
	return runJob(t, s, profile, slaves, uniformSpec("t", maps, reduces, recsPerSeg, bytesPerRec), nil)
}

// skewSpec builds a job whose reducer 0 takes half of every map's output
// and the rest share the other half evenly.
func skewSpec(maps, reduces int, perMap int64) *JobSpec {
	recBytes := int64(2048)
	parts := make([][]SegSpec, maps)
	for m := range parts {
		parts[m] = make([]SegSpec, reduces)
		recs := perMap / recBytes
		half := recs / 2
		rest := (recs - half) / int64(reduces-1)
		parts[m][0] = SegSpec{Records: half, Bytes: half * recBytes}
		for r := 1; r < reduces; r++ {
			parts[m][r] = SegSpec{Records: rest, Bytes: rest * recBytes}
		}
	}
	return &JobSpec{Name: "skew", Conf: mapreduce.NewConf(), Partitions: parts, TypeFactor: 1}
}

// policy is one scheduler at the cluster and job shape a test runs it on.
type policy struct {
	name           string
	sched          Scheduler
	slaves         int
	maps, reduces  int
	recs, recBytes int64
}

func TestJobCompletes(t *testing.T) {
	for _, pc := range []policy{
		{"mrv1", MRv1, 4, 8, 4, 1000, 1024},
		{"yarn", YARN, 8, 32, 16, 500, 1024},
	} {
		t.Run(pc.name, func(t *testing.T) {
			rep := runUniform(t, pc.sched, netsim.OneGigE, pc.slaves, pc.maps, pc.reduces, pc.recs, pc.recBytes)
			if rep.ExecutionSeconds() <= 0 {
				t.Fatal("no elapsed time")
			}
			if rep.MapPhaseEnd <= rep.JobStart || rep.JobEnd <= rep.MapPhaseEnd {
				t.Errorf("phase timestamps disordered: start=%v mapEnd=%v end=%v",
					rep.JobStart, rep.MapPhaseEnd, rep.JobEnd)
			}
			if rep.ShuffleEnd < rep.MapPhaseEnd {
				t.Error("shuffle ended before last map")
			}
			// The globally last reducer must end at or after the last copy
			// finished.
			var lastReduce sim.Time
			for _, end := range rep.ReduceEnds {
				if end > lastReduce {
					lastReduce = end
				}
			}
			if lastReduce < rep.ShuffleEnd {
				t.Error("last reducer ended before global shuffle end")
			}
			want := int64(pc.maps*pc.reduces) * pc.recs
			if got := rep.Counters.Task(mapreduce.CtrMapOutputRecords); got != want {
				t.Errorf("map output records = %d, want %d", got, want)
			}
		})
	}
}

func TestFasterNetworkNeverSlower(t *testing.T) {
	// Enough shuffle for the network to matter: 4 GB on MRv1, 16 GB on YARN.
	for _, pc := range []policy{
		{"mrv1", MRv1, 4, 16, 8, 4 << 30 / (16 * 8) / 1024, 1024},
		{"yarn", YARN, 8, 32, 16, 16 << 30 / (32 * 16) / 1024, 1024},
	} {
		t.Run(pc.name, func(t *testing.T) {
			run := func(profile netsim.Profile) float64 {
				return runUniform(t, pc.sched, profile, pc.slaves, pc.maps, pc.reduces, pc.recs, pc.recBytes).ExecutionSeconds()
			}
			t1, t10, tq := run(netsim.OneGigE), run(netsim.TenGigE), run(netsim.IPoIBQDR32)
			if !(t1 > t10 && t10 > tq) {
				t.Errorf("expected 1GigE > 10GigE > QDR, got %.1f / %.1f / %.1f", t1, t10, tq)
			}
			t.Logf("1GigE=%.1fs 10GigE=%.1fs (%.1f%%) QDR=%.1fs (%.1f%%)",
				t1, t10, 100*(t1-t10)/t1, tq, 100*(t1-tq)/t1)
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, pc := range []policy{
		{"mrv1", MRv1, 4, 8, 4, 2000, 1024},
		{"yarn", YARN, 4, 16, 8, 1000, 1024},
	} {
		t.Run(pc.name, func(t *testing.T) {
			a := runUniform(t, pc.sched, netsim.IPoIBQDR32, pc.slaves, pc.maps, pc.reduces, pc.recs, pc.recBytes)
			b := runUniform(t, pc.sched, netsim.IPoIBQDR32, pc.slaves, pc.maps, pc.reduces, pc.recs, pc.recBytes)
			if a.ExecutionSeconds() != b.ExecutionSeconds() {
				t.Errorf("non-deterministic: %.6f vs %.6f", a.ExecutionSeconds(), b.ExecutionSeconds())
			}
			if a.MapPhaseEnd != b.MapPhaseEnd || a.ShuffleEnd != b.ShuffleEnd {
				t.Error("phase timestamps differ between identical runs")
			}
		})
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (&JobSpec{Name: "x"}).Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	bad := uniformSpec("x", 2, 2, 1, 1)
	bad.Partitions[1] = bad.Partitions[1][:1]
	if err := bad.Validate(); err == nil {
		t.Error("ragged partitions accepted")
	}
	neg := uniformSpec("x", 1, 1, 1, 1)
	neg.Partitions[0][0].Bytes = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative bytes accepted")
	}
	ok := uniformSpec("x", 1, 1, 1, 1)
	ok.TypeFactor = 0
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.TypeFactor != 1.0 {
		t.Error("TypeFactor not defaulted")
	}
}

func TestSpecArithmetic(t *testing.T) {
	s := uniformSpec("x", 4, 2, 100, 10)
	if s.NumMaps() != 4 || s.NumReduces() != 2 {
		t.Error("dims wrong")
	}
	if s.MapRecords(0) != 200 || s.MapBytes(0) != 2000 {
		t.Errorf("map totals = %d/%d", s.MapRecords(0), s.MapBytes(0))
	}
	if s.ReduceRecords(1) != 400 || s.ReduceBytes(1) != 4000 {
		t.Errorf("reduce totals = %d/%d", s.ReduceRecords(1), s.ReduceBytes(1))
	}
	if s.TotalShuffleBytes() != 8000 || s.TotalRecords() != 800 {
		t.Errorf("job totals = %d/%d", s.TotalShuffleBytes(), s.TotalRecords())
	}
}
