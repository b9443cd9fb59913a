package mrsim

import (
	"testing"
	"testing/quick"

	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

// uniformSpec builds a spec where every map sends the same amount to every
// reducer.
func uniformSpec(name string, maps, reduces int, recsPerSeg, bytesPerRec int64) *JobSpec {
	parts := make([][]SegSpec, maps)
	for m := range parts {
		parts[m] = make([]SegSpec, reduces)
		for r := range parts[m] {
			parts[m][r] = SegSpec{Records: recsPerSeg, Bytes: recsPerSeg * bytesPerRec}
		}
	}
	return &JobSpec{Name: name, Conf: mapreduce.NewConf(), Partitions: parts, TypeFactor: 1}
}

func TestChunkOf(t *testing.T) {
	cases := []struct {
		total    int64
		of       int
		wantLast int64
	}{
		{100, 1, 100},
		{100, 3, 100 - 2*33},
		{7, 4, 7 - 3*1},
		{0, 5, 0},
	}
	for _, c := range cases {
		var sum int64
		for i := 0; i < c.of; i++ {
			sum += ChunkOf(c.total, i, c.of)
		}
		if sum != c.total {
			t.Errorf("ChunkOf(%d,*,%d) sums to %d", c.total, c.of, sum)
		}
		if got := ChunkOf(c.total, c.of-1, c.of); got != c.wantLast {
			t.Errorf("last chunk of (%d,%d) = %d, want %d", c.total, c.of, got, c.wantLast)
		}
	}
	// Property: chunks conserve the total and are non-negative.
	f := func(total int64, of8 uint8) bool {
		if total < 0 {
			total = -total
		}
		of := int(of8%16) + 1
		var sum int64
		for i := 0; i < of; i++ {
			c := ChunkOf(total, i, of)
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlowstartTarget(t *testing.T) {
	spec := uniformSpec("u", 40, 2, 1, 1)
	e := sim.NewEngine()
	c := cluster.ClusterA(e, 1, netsim.OneGigE)
	js := newJobState(spec, c, costmodel.Default())
	if got := js.slowstartTarget(); got != 2 { // 0.05 * 40
		t.Errorf("slowstart = %d, want 2", got)
	}
	spec.Conf.SetFloat(mapreduce.ConfSlowstartMaps, 1.0)
	if got := js.slowstartTarget(); got != 40 {
		t.Errorf("slowstart = %d, want 40", got)
	}
	spec.Conf.SetFloat(mapreduce.ConfSlowstartMaps, 0.0)
	if got := js.slowstartTarget(); got != 1 {
		t.Errorf("slowstart floor = %d, want 1", got)
	}
}

func TestSpillFeedPublish(t *testing.T) {
	spec := uniformSpec("u", 2, 2, 10, 10)
	e := sim.NewEngine()
	c := cluster.ClusterA(e, 1, netsim.OneGigE)
	js := newJobState(spec, c, costmodel.Default())
	js.publishSpill(0, 0, 3, 2)
	js.publishSpill(0, 1, 3, 2)
	if len(js.SpillFeed) != 2 {
		t.Fatalf("feed length = %d", len(js.SpillFeed))
	}
	if js.SpillFeed[1] != (SpillEvent{Map: 0, Index: 1, Of: 3, Node: 2}) {
		t.Errorf("event = %+v", js.SpillFeed[1])
	}
}

func TestFinishFillsCounters(t *testing.T) {
	spec := uniformSpec("u", 2, 2, 100, 10)
	e := sim.NewEngine()
	c := cluster.ClusterA(e, 1, netsim.OneGigE)
	js := newJobState(spec, c, costmodel.Default())
	js.Report.ShuffleBytes = 4000
	js.finish(sim.DurationOf(5))
	if !js.finished || !js.done.Done() {
		t.Error("finish did not finalize")
	}
	ctr := js.Report.Counters
	if ctr.Task(mapreduce.CtrMapOutputRecords) != 400 {
		t.Errorf("map output records = %d", ctr.Task(mapreduce.CtrMapOutputRecords))
	}
	if ctr.Task(mapreduce.CtrReduceShuffleBytes) != 4000 {
		t.Errorf("shuffle bytes = %d", ctr.Task(mapreduce.CtrReduceShuffleBytes))
	}
}

func TestStockShuffleName(t *testing.T) {
	if (StockShuffle{}).Name() != "hadoop-tcp" || (StockShuffle{}).EagerSpills() {
		t.Error("stock shuffle identity wrong")
	}
}

func TestReportPhaseHelpers(t *testing.T) {
	r := &Report{
		JobStart:    sim.DurationOf(10),
		MapPhaseEnd: sim.DurationOf(60),
		JobEnd:      sim.DurationOf(110),
	}
	if r.ExecutionSeconds() != 100 {
		t.Errorf("exec = %v", r.ExecutionSeconds())
	}
	if r.MapPhaseSeconds() != 50 {
		t.Errorf("map = %v", r.MapPhaseSeconds())
	}
	if r.ReduceTailSeconds() != 50 {
		t.Errorf("tail = %v", r.ReduceTailSeconds())
	}
}
