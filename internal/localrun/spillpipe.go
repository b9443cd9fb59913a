// spillpipe.go is the map side's background SpillThread — the collect/spill
// overlap Hadoop's MapTask gets from SpillThread + the equator split. When
// the active SortBuffer crosses the sort.spill.percent soft limit the
// collector seals it and hands it to a single background spiller goroutine
// (sort → combine, the whole seal path off the mapper goroutine),
// takes a fresh buffer from a bounded ring, and keeps collecting; it blocks
// only when every ring buffer is sealed and unspilled (backpressure when
// collection outruns spilling). The spiller additionally premerges every
// io.sort.factor completed spills into one block, so most of
// the per-map multi-spill final merge overlaps the last collect wave and the
// mapper-side final pass starts from a small fan-in.
//
// Byte identity with the synchronous path is structural, not incidental:
// spill *boundaries* depend only on the record stream and the conf (every
// ring buffer has the full io.sort.mb capacity and the collector applies the
// same ShouldSpill trigger), each spill's seal work (sort/combine) is
// the same pure function either way, and the final output per partition is a
// merge of the same runs in which only position-adjacent runs ever combine
// and the result takes their place: a premerged block replaces a contiguous
// run range, and every pass of kvbuf.MergeAll does the same in place
// (kvbuf.MergeInPlace). Under that property both sides emit the bytes of one
// flat merge of the raw spills, so the async path produces bit-identical map
// outputs and identical task counters. TestAsyncSpillByteIdenticalToSync
// holds it with an order-revealing job at fan-in 2, 3 and 10, and mrcheck's
// spill-identity invariant with its order witness.
package localrun

import (
	"sync"
	"time"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
)

// MapSpillStats breaks down the map-side collect/spill pipeline across all
// winning map attempts. In the synchronous mode every spill stalls the
// collector, so CollectStall ~= SpillWork and AsyncSpills is 0; with the
// background spiller CollectStall shrinks to genuine backpressure and
// SpillWork runs concurrently with collection.
type MapSpillStats struct {
	CollectStall time.Duration // collector blocked waiting on spilling
	SpillWork    time.Duration // sort + combine seal time (wherever it ran)
	Premerge     time.Duration // background block premerges of completed spills
	DrainWait    time.Duration // mapper waiting for the last spills after input close
	FinalMerge   time.Duration // mapper-side final merge, codec + shuffle registration

	Spills        int64 // spills produced
	AsyncSpills   int64 // spills sealed on the background spiller
	PremergedRuns int64 // raw runs consumed by background premerges

	// Key comparisons, as kvbuf counts them: those the spills' sorts made
	// (SortBuffer.Spill), and those the premerges, final merges and
	// combiner passes made (SourceMerger). Both are fixed by the records
	// and the spill boundaries, not by the schedule.
	SortComparisons  int64
	MergeComparisons int64
}

// Overlapped estimates the seal+premerge work hidden under collection: the
// background work minus what the collector spent blocked anyway. It is the
// map side's analogue of the shuffle overlap window.
func (s MapSpillStats) Overlapped() time.Duration {
	d := s.SpillWork + s.Premerge - s.CollectStall - s.DrainWait
	if d < 0 {
		return 0
	}
	return d
}

// mapRun is one final-merge input of a map task: either a raw spill (one
// sealed segment per partition, combined per the job conf) or a premerged
// block standing in for a contiguous range of spills, not yet re-combined —
// the final pass does that once, as the synchronous multi-spill path does.
// Both are uncompressed: the codec meets a map's output only when it is
// registered.
type mapRun struct {
	segs   []*kvbuf.Segment
	merged bool
}

// spillPipeline is one map attempt's background spiller: a bounded buffer
// ring between the collector and a single worker goroutine. All fields
// except err/jobs are owned by the worker until drain returns.
type spillPipeline struct {
	tr   *TaskRunner
	ring *kvbuf.BufferRing
	jobs chan *kvbuf.SortBuffer
	done chan struct{}
	tm   *tally

	wctrs *mapreduce.Counters // worker-private combine counters, merged at drain
	runs  []mapRun

	mu  sync.Mutex
	err error
}

// newSpillPipeline starts one map attempt's background spiller. tr.inflight
// (>=1) bounds sealed buffers awaiting the worker; the ring holds inflight+1
// buffers, so inflight=1 is the classic double buffer.
func newSpillPipeline(tr *TaskRunner, tm *tally) *spillPipeline {
	sp := &spillPipeline{
		tr:    tr,
		ring:  kvbuf.NewBufferRing(tr.sortBytes, tr.numReduces, tr.inflight+1, tr.order),
		jobs:  make(chan *kvbuf.SortBuffer, tr.inflight+1),
		done:  make(chan struct{}),
		tm:    tm,
		wctrs: mapreduce.NewCounters(),
	}
	go sp.worker()
	return sp
}

func (sp *spillPipeline) firstErr() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.err
}

func (sp *spillPipeline) fail(err error) {
	sp.mu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.mu.Unlock()
}

// worker seals buffers FIFO: sort (which resets the buffer, returned to the
// ring immediately so the collector can reuse it), then combine.
// After an error it keeps draining so the collector never blocks on a dead
// ring, discarding the work.
func (sp *spillPipeline) worker() {
	defer close(sp.done)
	for buf := range sp.jobs {
		if sp.firstErr() != nil {
			buf.Reset()
			sp.ring.Put(buf)
			continue
		}
		t0 := time.Now()
		segs, comps := buf.Spill()
		sp.ring.Put(buf)
		sp.tm.add(sortComps, comps)
		err := sp.tr.sealSegments(segs, sp.wctrs, sp.tm)
		sp.tm.since(spillWork, t0)
		sp.tm.add(asyncSpills, 1)
		if err != nil {
			recycleSegs(segs)
			sp.fail(err)
			continue
		}
		sp.runs = append(sp.runs, mapRun{segs: segs})
		if err := sp.maybePremerge(); err != nil {
			sp.fail(err)
		}
	}
}

// maybePremerge folds the trailing io.sort.factor raw spills into one
// block once they accumulate, bounding the final fan-in and
// moving most merge work off the mapper's critical path. Only contiguous
// raw runs merge and blocks never re-merge, so positional tie-breaking —
// and with it final-output byte identity — is preserved.
func (sp *spillPipeline) maybePremerge() error {
	n := 0
	for i := len(sp.runs) - 1; i >= 0 && !sp.runs[i].merged; i-- {
		n++
	}
	if n < sp.tr.factor {
		return nil
	}
	t0 := time.Now()
	tail := sp.runs[len(sp.runs)-n:]
	block, err := sp.tr.premergeRuns(tail, sp.tm)
	if err != nil {
		return err
	}
	sp.runs = append(sp.runs[:len(sp.runs)-n], block)
	sp.tm.since(premerge, t0)
	sp.tm.add(premergedRuns, int64(n))
	return nil
}

// premergeRuns merges a contiguous range of raw spill runs into one block,
// partition by partition. No combine: the final pass runs the combiner once
// over the fully merged output, exactly like the synchronous multi-spill path.
func (tr *TaskRunner) premergeRuns(runs []mapRun, tm *tally) (mapRun, error) {
	out := make([]*kvbuf.Segment, len(runs[0].segs))
	for p := range out {
		merged, err := tr.mergePartition(runs, p, tm)
		if err != nil {
			recycleSegs(out)
			return mapRun{}, err
		}
		out[p] = merged
	}
	return mapRun{segs: out, merged: true}, nil
}

// mergePartition merges partition p of position-ordered runs into one
// segment, the step the background premerge and the mapper's final merge
// share: kvbuf.MergeAll merges them with positional tie-breaks, and the
// runs' partition buffers are recycled once their bytes live in the result.
func (tr *TaskRunner) mergePartition(runs []mapRun, p int, tm *tally) (*kvbuf.Segment, error) {
	parts := make([]*kvbuf.Segment, len(runs))
	for i, run := range runs {
		parts[i] = run.segs[p]
	}
	merged, comps, err := kvbuf.MergeAll(tr.order, parts, tr.factor, 0)
	tm.add(mapMergeComps, comps)
	if err != nil {
		return nil, err
	}
	recycleSegs(parts)
	return merged, nil
}

// drain closes the pipeline, waits for the worker to seal the tail spills,
// folds the worker's combine counters into the attempt's, and returns the
// completed runs in spill order.
func (sp *spillPipeline) drain(ctrs *mapreduce.Counters) ([]mapRun, error) {
	t0 := time.Now()
	close(sp.jobs)
	<-sp.done
	sp.tm.since(drainWait, t0)
	sp.ring.Release()
	ctrs.Merge(sp.wctrs)
	if err := sp.firstErr(); err != nil {
		for _, run := range sp.runs {
			recycleSegs(run.segs)
		}
		return nil, err
	}
	return sp.runs, nil
}

// abort tears the pipeline down on a collector-side error, releasing every
// buffer and completed run.
func (sp *spillPipeline) abort() {
	sp.fail(errPipelineAborted)
	close(sp.jobs)
	<-sp.done
	sp.ring.Release()
	for _, run := range sp.runs {
		recycleSegs(run.segs)
	}
	sp.runs = nil
}

var errPipelineAborted = &mapreduce.JobError{Msg: "localrun: spill pipeline aborted"}

// sealSegments applies the per-spill seal path — the combiner — to one
// spill's partition segments in place, the same transformation (same
// order, same counter increments) as the synchronous spill.
func (tr *TaskRunner) sealSegments(segs []*kvbuf.Segment, ctrs *mapreduce.Counters, tm *tally) error {
	if tr.job.Combiner == nil {
		return nil
	}
	for p, seg := range segs {
		if seg.Records() == 0 {
			continue
		}
		combined, err := tr.combineSegment(seg, ctrs, tm)
		if err != nil {
			return err
		}
		seg.Recycle() // combineSegment copied what it kept
		segs[p] = combined
	}
	return nil
}

func recycleSegs(segs []*kvbuf.Segment) {
	for _, s := range segs {
		if s != nil {
			s.Recycle()
		}
	}
}
