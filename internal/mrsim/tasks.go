package mrsim

import (
	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// runMapTask executes one map attempt on node: startup, record
// generation/collection, buffer sorts + spills, and the multi-pass on-disk
// merge to the final map output file. onDone(ok) runs when the attempt
// ends: launch frees the policy's slot or container there and re-queues
// the task when ok is false (injected fault). Speculative duplicate attempts are
// deduplicated: only the first completion counts.
func (js *JobState) runMapTask(p *sim.Proc, node *cluster.Node, idx int, onDone func(ok bool)) {
	m := js.Model
	spec := js.Spec
	attempt := js.mapAttempts[idx]
	js.mapAttempts[idx]++
	if attempt == 0 {
		js.mapStarted[idx] = p.Now()
	}
	started := p.Now()

	p.Sleep(sim.DurationOf(m.TaskStartup))

	records := spec.MapRecords(idx)
	bytes := spec.MapBytes(idx)

	// Map function + collect path: per-record and per-byte CPU.
	cpu := (float64(records)*m.MapRecordCPU + float64(bytes)*m.MapByteCPU) * spec.TypeFactor
	if spec.FailMap(idx, attempt) {
		// The attempt dies partway through the map function; the work is
		// wasted and the scheduler re-queues the task.
		node.Compute(p, cpu/2)
		js.logTask(TaskEvent{Type: mapreduce.TaskMap, Index: idx, Attempt: attempt, Node: node.Index, Start: started, End: p.Now()})
		onDone(false)
		return
	}
	// Combine and codec CPU shares (the post-combine matrix is what spills,
	// merges, and the shuffle move).
	outRecs, outBytes := records, bytes
	combineCPU := 0.0
	if spec.Combining() {
		combineCPU = float64(records) * m.CombineRecordCPU * spec.TypeFactor
		outRecs = spec.MapShuffleRecords(idx)
		outBytes = spec.MapShuffleBytes(idx)
	}
	wf := js.wireFactor()
	compressCPU := 0.0
	if wf < 1 {
		compressCPU = float64(outBytes) * m.CompressCPU
	}

	// Sort + spill: the buffer fills with raw collect output (combining
	// happens on the way out), so the spill count follows pre-combine bytes
	// while each spill writes its combined share. Both engines derive the
	// trigger from the shared cost-model formula.
	spillBytes := costmodel.SpillTriggerBytes(spec.Conf)
	numSpills := int((bytes + spillBytes - 1) / spillBytes)
	if numSpills < 1 {
		numSpills = 1
	}
	recsPerSpill := outRecs / int64(numSpills)
	bytesPerSpill := outBytes / int64(numSpills)
	factor := spec.Conf.IOSortFactor()
	eager := spec.Shuffle != nil && spec.Shuffle.EagerSpills()
	// With speculation, only one attempt may feed the spill stream.
	publisher := eager && !js.spillClaimed(idx)

	if spec.Conf.SpillOverlap() && numSpills > 1 {
		// Background SpillThread: collection and spilling run as separate
		// procs contending for the node's cores, so the overlap win appears
		// only where spare cores exist — a 1-core node serializes them.
		js.runMapSpillsOverlapped(p, node, idx, cpu+combineCPU+compressCPU,
			recsPerSpill, bytesPerSpill, outRecs, outBytes, numSpills, factor, wf, eager, publisher)
	} else {
		// Synchronous path: every spill stalls the mapper for its full
		// sort+write, then the multi-pass merge runs after the last spill.
		node.Compute(p, cpu)
		if combineCPU > 0 {
			node.Compute(p, combineCPU)
		}
		if compressCPU > 0 {
			node.Compute(p, compressCPU)
		}
		for s := 0; s < numSpills; s++ {
			node.Compute(p, m.SortCPU(recsPerSpill)*spec.TypeFactor)
			if w := int64(float64(bytesPerSpill) * wf); w > 0 {
				node.Store.Write(p, w)
			}
			if publisher {
				js.publishSpill(idx, s, numSpills, node.Index)
			}
		}

		// Merge spills into the single map output file (skipped for one
		// spill: Hadoop renames it in place, and skipped entirely for
		// eager-spill shuffles, which serve the raw spills).
		if numSpills > 1 && !eager {
			js.mapFinalMerge(p, node, numSpills, factor, recsPerSpill, bytesPerSpill, outRecs, outBytes, wf)
		}
	}

	js.logTask(TaskEvent{Type: mapreduce.TaskMap, Index: idx, Attempt: attempt, Node: node.Index, Start: started, End: p.Now(), Succeeded: true})
	// Report completion; a speculative duplicate that lost only frees its
	// slot.
	if js.mapCompleted[idx] {
		onDone(true)
		return
	}
	js.mapCompleted[idx] = true
	js.mapLoc[idx] = node.Index // winner's location serves the fetches
	js.mapRuntimeSum += (p.Now() - started).Seconds()
	js.completedMaps = append(js.completedMaps, idx)
	js.MapsDone++
	if js.MapsDone == spec.NumMaps() {
		js.Report.MapPhaseEnd = p.Now()
	}
	onDone(true)
	js.MapCompletion.Broadcast()
	js.allDone.Done()
}

// mergePasses charges the intermediate passes of the one merge plan
// (kvbuf.MergePasses, the plan kvbuf.MergeInPlace executes on both sides of
// the real engines) over fanIn runs and returns the fan-in left for the
// final pass. Unit sizes are per-run averages; wf scales merged bytes to
// bytes on disk and codecCPU is the per-byte cost of re-coding them.
func (js *JobState) mergePasses(p *sim.Proc, node *cluster.Node, fanIn, factor int, unitRecs, unitBytes int64, wf, codecCPU float64) int {
	m := js.Model
	for _, take := range kvbuf.MergePasses(fanIn, factor) {
		passBytes := unitBytes * int64(take)
		passRecs := unitRecs * int64(take)
		passWire := int64(float64(passBytes) * wf)
		node.Store.Read(p, passWire)
		node.Compute(p, m.MergeCPU(passRecs, take)+float64(passBytes)*m.MergeByteCPU+float64(passBytes)*codecCPU)
		node.Store.Write(p, passWire)
		node.Store.Delete(passWire) // merged pass inputs removed
		fanIn = fanIn - take + 1
	}
	return fanIn
}

// mapFinalMerge charges the multi-pass merge of fanIn runs into the single
// map output file: intermediate passes while fanIn exceeds io.sort.factor,
// then the final pass (with the combiner's second chance) that writes the
// output and removes the runs. unit sizes are per-run averages.
func (js *JobState) mapFinalMerge(p *sim.Proc, node *cluster.Node, fanIn, factor int, unitRecs, unitBytes, outRecs, outBytes int64, wf float64) {
	m := js.Model
	spec := js.Spec
	codecCPU := 0.0
	if wf < 1 {
		codecCPU = m.DecompressCPU + m.CompressCPU
	}
	remaining := js.mergePasses(p, node, fanIn, factor, unitRecs, unitBytes, wf, codecCPU)
	// Final pass writes the single output file and removes the spills.
	wireAll := int64(float64(outBytes) * wf)
	node.Store.Read(p, wireAll)
	if spec.Combining() {
		// The merge-side combine pass touches every surviving record.
		node.Compute(p, float64(outRecs)*m.CombineRecordCPU*spec.TypeFactor)
	}
	node.Compute(p, m.MergeCPU(outRecs, remaining)+float64(outBytes)*m.MergeByteCPU+float64(outBytes)*codecCPU)
	node.Store.Write(p, wireAll)
	node.Store.Delete(wireAll)
}

// runMapSpillsOverlapped models the background-SpillThread map task: the
// mapper proc charges collection CPU in per-spill chunks and enqueues each
// sealed buffer for a spiller proc (bounded by mapreduce.map.spill.inflight,
// blocking when collection outruns spilling — the collect stall), while the
// spiller sorts, writes, publishes, and premerges every io.sort.factor
// completed spills into one block. Both procs contend for the node's cores,
// so the wall-clock win is the idle-core overlap, not free work. The bytes
// moved and total CPU charged are identical to the synchronous path — the
// knob moves time, never modelled data.
func (js *JobState) runMapSpillsOverlapped(p *sim.Proc, node *cluster.Node, idx int, collectCPU float64, recsPerSpill, bytesPerSpill, outRecs, outBytes int64, numSpills, factor int, wf float64, eager, publisher bool) {
	m := js.Model
	spec := js.Spec
	inflight := spec.Conf.SpillInflight()

	queued := 0
	closed := false
	cond := sim.NewCond()
	var wg sim.WaitGroup
	wg.Add(1)

	// Fan-in bookkeeping: premerged blocks plus the trailing raw runs are
	// what the mapper's final pass merges. Read only after wg.Wait.
	blocks, rawTail := 0, 0
	js.Cluster.Engine().Go(spec.Name+"/spiller", func(sp *sim.Proc) {
		defer wg.Done()
		done := 0
		for {
			for queued == 0 && !closed {
				cond.Wait(sp)
			}
			if queued == 0 {
				return
			}
			queued--
			cond.Broadcast()
			node.Compute(sp, m.SortCPU(recsPerSpill)*spec.TypeFactor)
			if w := int64(float64(bytesPerSpill) * wf); w > 0 {
				node.Store.Write(sp, w)
			}
			if publisher {
				js.publishSpill(idx, done, numSpills, node.Index)
			}
			done++
			rawTail++
			if !eager && rawTail == factor && factor >= 2 && done < numSpills {
				// Premerge the trailing factor raw runs into one block while
				// the mapper keeps collecting — the overlapped share of the
				// final merge.
				passBytes := bytesPerSpill * int64(factor)
				passRecs := recsPerSpill * int64(factor)
				passWire := int64(float64(passBytes) * wf)
				node.Store.Read(sp, passWire)
				codec := 0.0
				if wf < 1 {
					codec = float64(passBytes) * (m.DecompressCPU + m.CompressCPU)
				}
				node.Compute(sp, m.MergeCPU(passRecs, factor)+float64(passBytes)*m.MergeByteCPU+codec)
				node.Store.Write(sp, passWire)
				node.Store.Delete(passWire)
				blocks++
				rawTail = 0
			}
		}
	})

	perSpillCollect := collectCPU / float64(numSpills)
	for s := 0; s < numSpills; s++ {
		node.Compute(p, perSpillCollect)
		for queued >= inflight {
			cond.Wait(p) // backpressure: every ring buffer sealed and unspilled
		}
		queued++
		cond.Broadcast()
	}
	closed = true
	cond.Broadcast()
	wg.Wait(p) // drain: only the tail spills expose their latency

	if !eager {
		fanIn := blocks + rawTail
		if fanIn < 1 {
			fanIn = 1
		}
		js.mapFinalMerge(p, node, fanIn, factor, outRecs/int64(fanIn), outBytes/int64(fanIn), outRecs, outBytes, wf)
	}
}

// spillClaimed marks idx's spill stream as owned by the calling attempt;
// the first claimer wins.
func (js *JobState) spillClaimed(idx int) bool {
	if js.spillOwner == nil {
		js.spillOwner = make([]bool, js.Spec.NumMaps())
	}
	if js.spillOwner[idx] {
		return true
	}
	js.spillOwner[idx] = true
	return false
}

// ShuffleResult is what a copy phase leaves for the final merge.
type ShuffleResult struct {
	OnDiskBytes int64
	OnDiskRecs  int64
	OnDiskSegs  int
	InMemSegs   int
	// MergeOverlap is the fraction of final-merge work already performed
	// during the copy phase (pipelined mergers); 0 for stock Hadoop.
	MergeOverlap float64
}

// ShufflePlugin is a reducer's copy-phase strategy. The stock
// implementation mirrors Hadoop's fetch + in-memory merge with disk
// overflow; the rdmashuffle package substitutes the MRoIB design.
type ShufflePlugin interface {
	Name() string
	// EagerSpills reports whether reducers fetch individual map spills as
	// they are produced (MRoIB/HOMR). When true, map tasks publish spill
	// events and skip their final on-disk merge — reducers consume the raw
	// spills directly.
	EagerSpills() bool
	// RunShuffle copies every map's segment for reducer idx to node,
	// blocking p until the copy phase completes.
	RunShuffle(p *sim.Proc, js *JobState, node *cluster.Node, idx int) ShuffleResult
}

// runReduceTask executes one reduce attempt on node: the copy phase (via
// the job's shuffle plugin), final merge, and the reduce function over
// NullOutputFormat. onDone(ok) mirrors runMapTask's contract.
func (js *JobState) runReduceTask(p *sim.Proc, node *cluster.Node, idx int, onDone func(ok bool)) {
	m := js.Model
	spec := js.Spec
	attempt := js.reduceAttempts[idx]
	js.reduceAttempts[idx]++
	started := p.Now()

	p.Sleep(sim.DurationOf(m.TaskStartup))
	if spec.FailReduce(idx, attempt) {
		// Dies during task initialization, before any copying.
		js.logTask(TaskEvent{Type: mapreduce.TaskReduce, Index: idx, Attempt: attempt, Node: node.Index, Start: started, End: p.Now()})
		onDone(false)
		return
	}

	plugin := spec.Shuffle
	if plugin == nil {
		plugin = StockShuffle{}
	}
	res := plugin.RunShuffle(p, js, node, idx)
	js.Report.ShuffleEnd = p.Now() // monotonic: final value is the last reducer's
	shuffleDone := p.Now()

	// Final merge: stream the on-disk runs and the in-memory tail through
	// the reduce-side merger. With a combiner, only the post-combine
	// records/bytes ever reach this side.
	totalRecs := spec.ReduceShuffleRecords(idx)
	totalBytes := spec.ReduceShuffleBytes(idx)
	fanIn := res.OnDiskSegs + res.InMemSegs
	// With an explicit byte budget (the real executor's bounded-pool knob)
	// the run count can exceed io.sort.factor, and the merger pays
	// intermediate disk passes first — the plan localrun's reduceOverInputs
	// executes, each pass re-reading and re-writing its share of the spilled
	// volume. Without the byte key the single-pass model — and the existing
	// figure calibration — is preserved byte for byte.
	if b := spec.Conf.GetInt(mapreduce.ConfShuffleInputBufBytes, 0); b > 0 && totalBytes > 0 {
		runs := int64(fanIn)
		onDisk := float64(res.OnDiskBytes) / float64(totalBytes)
		fanIn = js.mergePasses(p, node, fanIn, spec.Conf.IOSortFactor(), totalRecs/runs, totalBytes/runs, onDisk, 0)
	}
	if res.OnDiskBytes > 0 {
		node.Store.Read(p, res.OnDiskBytes)
		node.Store.Delete(res.OnDiskBytes)
	}
	mergeWork := m.MergeCPU(totalRecs, fanIn) + float64(totalBytes)*m.MergeByteCPU
	node.Compute(p, mergeWork*(1-res.MergeOverlap))

	// Reduce function; NullOutputFormat discards the output.
	node.Compute(p, (float64(totalRecs)*m.ReduceRecordCPU+float64(totalBytes)*m.ReduceByteCPU)*spec.TypeFactor)

	js.logTask(TaskEvent{Type: mapreduce.TaskReduce, Index: idx, Attempt: attempt, Node: node.Index, Start: started, End: p.Now(), Succeeded: true, ShuffleDone: shuffleDone})
	if js.reduceCompleted[idx] {
		onDone(true)
		return
	}
	js.reduceCompleted[idx] = true
	js.Report.ReduceEnds[idx] = p.Now()
	onDone(true)
	js.allDone.Done()
}

// StockShuffle is Hadoop's copy phase: parallelcopies fetchers pull
// completed map outputs over the fabric (protocol CPU charged both ends),
// accumulating in the shuffle buffer and merging to disk past the merge
// threshold — the merging fetcher stalls, back-pressuring the copy stream.
type StockShuffle struct{}

// Name identifies the plugin in reports.
func (StockShuffle) Name() string { return "hadoop-tcp" }

// EagerSpills is false: stock Hadoop serves map output only after the map
// completes.
func (StockShuffle) EagerSpills() bool { return false }

type stockState struct {
	next    int // cursor into completedMaps
	fetched int
	inMem   struct {
		bytes, recs int64
		segs        int
	}
	res ShuffleResult
}

// RunShuffle implements ShufflePlugin.
func (StockShuffle) RunShuffle(p *sim.Proc, js *JobState, node *cluster.Node, idx int) ShuffleResult {
	st := &stockState{}
	threshold := js.Model.MergeThresholdBytes(js.Spec.Conf)
	var fetchers sim.WaitGroup
	for c := 0; c < js.Spec.Conf.ParallelCopies(); c++ {
		fetchers.Add(1)
		js.Cluster.Engine().Go(js.Spec.Name+"/fetcher", func(p *sim.Proc) {
			defer fetchers.Done()
			for {
				mi, ok := claimNext(p, js, &st.next)
				if !ok {
					return
				}
				fetchOne(p, js, node, idx, mi, threshold, st)
			}
		})
	}
	fetchers.Wait(p)
	if st.fetched != js.Spec.NumMaps() {
		panic("mrsim: reducer finished shuffle without all map outputs")
	}
	st.res.InMemSegs = st.inMem.segs
	return st.res
}

// claimNext returns the next completed-but-unfetched map index, blocking on
// the completion feed; ok=false once every map is claimed.
func claimNext(p *sim.Proc, js *JobState, cursor *int) (int, bool) {
	for {
		if *cursor < len(js.completedMaps) {
			mi := js.completedMaps[*cursor]
			*cursor++
			return mi, true
		}
		if *cursor >= js.Spec.NumMaps() {
			return 0, false
		}
		js.MapCompletion.Wait(p)
	}
}

func fetchOne(p *sim.Proc, js *JobState, node *cluster.Node, idx, mi int, threshold int64, st *stockState) {
	m := js.Model
	seg := js.Spec.ShuffleSeg(mi, idx)
	if seg.Bytes > 0 {
		wf := js.wireFactor()
		wire := int64(float64(seg.Bytes) * wf)
		src := js.mapLoc[mi]
		if src == node.Index {
			node.Store.Read(p, wire)
		} else {
			js.Cluster.Transfer(p, src, node.Index, wire)
		}
		if wf < 1 {
			// Shuffled data stays compressed in the buffer; the merger pays
			// decompression when it touches it — charged here, where the
			// fetcher thread would block on the codec.
			node.Compute(p, float64(seg.Bytes)*m.DecompressCPU)
		}
		js.Report.ShuffleBytes += wire
		st.inMem.bytes += seg.Bytes
		st.inMem.recs += seg.Records
		st.inMem.segs++
		if st.inMem.bytes >= threshold {
			drainBytes, drainRecs, drainSegs := st.inMem.bytes, st.inMem.recs, st.inMem.segs
			st.inMem.bytes, st.inMem.recs, st.inMem.segs = 0, 0, 0
			node.Compute(p, m.MergeCPU(drainRecs, drainSegs)+float64(drainBytes)*m.MergeByteCPU)
			drainBytes = int64(float64(drainBytes) * js.wireFactor())
			node.Store.Write(p, drainBytes)
			st.res.OnDiskBytes += drainBytes
			st.res.OnDiskRecs += drainRecs
			st.res.OnDiskSegs++
		}
	}
	st.fetched++
}
