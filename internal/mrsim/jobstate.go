package mrsim

import (
	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// JobState is one job in execution on a simulated cluster. A Scheduler
// (MRv1's JobTracker, YARN's ApplicationMaster) decides when and where task
// bodies run; JobState carries the shared execution machinery: the tasks
// awaiting assignment, the completed-map feed reducers fetch from,
// placement records, phase timestamps and counters. Its exported fields are
// what a ShufflePlugin reads.
type JobState struct {
	Spec    *JobSpec
	Cluster *cluster.Cluster
	Model   *costmodel.Model
	Report  *Report

	MapsDone      int
	MapCompletion sim.Cond // broadcast on every map completion and spill

	// SpillFeed is the per-spill availability stream consumed by eager
	// (RDMA) shuffle plugins; stock Hadoop reducers ignore it and wait for
	// whole-map completions.
	SpillFeed []SpillEvent

	// pending holds the tasks awaiting assignment, indexed by
	// mapreduce.TaskType: every task at submission, then failed attempts
	// and speculative duplicates as they are queued again.
	pending [2][]int

	completedMaps []int // map indices in completion order
	mapLoc        []int // node index that ran each map
	allDone       sim.WaitGroup

	// Attempt bookkeeping (failure injection + speculative execution).
	mapAttempts     []int  // attempts launched per map task
	reduceAttempts  []int  // attempts launched per reduce task
	mapCompleted    []bool // first successful completion wins
	reduceCompleted []bool
	mapStarted      []sim.Time // first-attempt start, for speculation
	mapRuntimeSum   float64    // seconds, over successful completions
	spillOwner      []bool     // eager-spill stream ownership per map

	finished bool
	done     *sim.Future
}

// SpillEvent announces that spill Index of Of from map Map is fetchable on
// Node. The node rides along because mapLoc can be overwritten by a later
// (speculative or retried) attempt while eager fetchers are still pulling
// the publisher's spills.
type SpillEvent struct {
	Map   int
	Index int
	Of    int
	Node  int
}

// ChunkOf returns the share of a whole-map segment that one spill of `of`
// carries (the last spill takes the rounding remainder).
func ChunkOf(total int64, index, of int) int64 {
	if of <= 1 {
		return total
	}
	base := total / int64(of)
	if index == of-1 {
		return total - base*int64(of-1)
	}
	return base
}

// publishSpill appends a spill-availability event and wakes waiting
// fetchers.
func (js *JobState) publishSpill(mapIdx, index, of, node int) {
	js.SpillFeed = append(js.SpillFeed, SpillEvent{Map: mapIdx, Index: index, Of: of, Node: node})
	js.MapCompletion.Broadcast()
}

// newJobState prepares execution state for spec on c.
func newJobState(spec *JobSpec, c *cluster.Cluster, model *costmodel.Model) *JobState {
	js := &JobState{
		Spec:            spec,
		Cluster:         c,
		Model:           model,
		mapLoc:          make([]int, spec.NumMaps()),
		mapAttempts:     make([]int, spec.NumMaps()),
		reduceAttempts:  make([]int, spec.NumReduces()),
		mapCompleted:    make([]bool, spec.NumMaps()),
		reduceCompleted: make([]bool, spec.NumReduces()),
		mapStarted:      make([]sim.Time, spec.NumMaps()),
		Report: &Report{
			ReduceEnds: make([]sim.Time, spec.NumReduces()),
			Counters:   mapreduce.NewCounters(),
		},
		done: sim.NewFuture(),
	}
	for m := 0; m < spec.NumMaps(); m++ {
		js.pending[mapreduce.TaskMap] = append(js.pending[mapreduce.TaskMap], m)
	}
	for r := 0; r < spec.NumReduces(); r++ {
		js.pending[mapreduce.TaskReduce] = append(js.pending[mapreduce.TaskReduce], r)
	}
	return js
}

// wireFactor returns the modelled intermediate-compression ratio applied
// to shuffled and spilled bytes: 1.0 when mapreduce.map.output.compress is
// off, else mapreduce.map.output.compress.ratio (default 0.5).
func (js *JobState) wireFactor() float64 {
	if !js.Spec.Conf.GetBool(mapreduce.ConfCompressMapOut, false) {
		return 1.0
	}
	r := js.Spec.Conf.GetFloat(mapreduce.ConfCompressRatio, 0.5)
	if r <= 0 || r > 1 {
		r = 0.5
	}
	return r
}

// slowstartTarget returns the completed-map count reducers wait for.
func (js *JobState) slowstartTarget() int {
	t := int(js.Spec.Conf.SlowstartMaps() * float64(js.Spec.NumMaps()))
	if t < 1 {
		t = 1
	}
	return t
}

// finish stamps the job end, derives counters and resolves done. The job
// master calls it after allDone drains and cleanup has been charged.
func (js *JobState) finish(now sim.Time) {
	js.Report.JobEnd = now
	js.finished = true
	js.fillCounters()
	js.done.Set(js.Report)
}

// cleanupIntermediate removes the map output files from their nodes' caches
// (Hadoop's job-cleanup deletion of mapred.local.dir data).
func (js *JobState) cleanupIntermediate() {
	for m := 0; m < js.Spec.NumMaps(); m++ {
		js.Cluster.Node(js.mapLoc[m]).Store.Delete(js.Spec.MapShuffleBytes(m))
	}
}

// fillCounters derives Hadoop-style counters from the spec (the simulated
// engine moves no real records, but the accounting is exact).
func (js *JobState) fillCounters() {
	c := js.Report.Counters
	spec := js.Spec
	inRecs := spec.MapInputRecords
	if inRecs == 0 {
		inRecs = int64(spec.NumMaps()) // NullInput: one dummy split record each
	}
	c.IncrTask(mapreduce.CtrMapInputRecords, inRecs)
	if spec.MapInputBytes > 0 {
		c.IncrTask(mapreduce.CtrMapInputBytes, spec.MapInputBytes)
	}
	c.IncrTask(mapreduce.CtrMapOutputRecords, spec.TotalRecords())
	mob := spec.MapOutputRawBytes
	if mob == 0 {
		mob = spec.TotalShuffleBytes()
	}
	c.IncrTask(mapreduce.CtrMapOutputBytes, mob)
	reduceIn := spec.TotalRecords()
	if spec.Combining() {
		reduceIn = 0
		for r := 0; r < spec.NumReduces(); r++ {
			reduceIn += spec.ReduceShuffleRecords(r)
		}
	}
	c.IncrTask(mapreduce.CtrReduceInputRecords, reduceIn)
	c.IncrTask(mapreduce.CtrShuffledMaps, int64(spec.NumMaps()*spec.NumReduces()))
	c.IncrTask(mapreduce.CtrReduceShuffleBytes, js.Report.ShuffleBytes)
}
