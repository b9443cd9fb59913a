// spillpipe.go is the map side's background SpillThread — the collect/spill
// overlap Hadoop's MapTask gets from SpillThread + the equator split. When
// the active SortBuffer crosses the sort.spill.percent soft limit the
// collector seals it and hands it to a single background spiller goroutine
// (sort → combine → codec, the whole seal path off the mapper goroutine),
// takes a fresh buffer from a bounded ring, and keeps collecting; it blocks
// only when every ring buffer is sealed and unspilled (backpressure when
// collection outruns spilling). The spiller additionally premerges every
// io.sort.factor completed spills into one uncompressed block, so most of
// the per-map multi-spill final merge overlaps the last collect wave and the
// mapper-side final pass starts from a small fan-in.
//
// Byte identity with the synchronous path is structural, not incidental:
// spill *boundaries* depend only on the record stream and the conf (every
// ring buffer has the full io.sort.mb capacity and the collector applies the
// same ShouldSpill trigger), each spill's seal work (sort/combine/codec) is
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
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
)

// spillTimings accumulates one map attempt's collect/spill pipeline work.
// Atomics because the collector and the background spiller record
// concurrently; absorb folds a winning attempt into the job totals.
type spillTimings struct {
	collectStallNs atomic.Int64 // collector blocked: ring empty (async) or spilling inline (sync)
	spillWorkNs    atomic.Int64 // sort + combine + codec seal work
	premergeNs     atomic.Int64 // background block premerges
	drainWaitNs    atomic.Int64 // mapper waiting for the spiller to finish after close
	finalMergeNs   atomic.Int64 // mapper-side final merge + register
	spills         atomic.Int64 // spills produced
	asyncSpills    atomic.Int64 // spills sealed on the background spiller
	premergedRuns  atomic.Int64 // raw runs consumed by background premerges
}

func (tm *spillTimings) addCollectStall(d time.Duration) { tm.collectStallNs.Add(int64(d)) }
func (tm *spillTimings) addSpillWork(d time.Duration)    { tm.spillWorkNs.Add(int64(d)) }
func (tm *spillTimings) addPremerge(d time.Duration)     { tm.premergeNs.Add(int64(d)) }
func (tm *spillTimings) addDrainWait(d time.Duration)    { tm.drainWaitNs.Add(int64(d)) }
func (tm *spillTimings) addFinalMerge(d time.Duration)   { tm.finalMergeNs.Add(int64(d)) }

func (tm *spillTimings) absorb(o *spillTimings) {
	tm.collectStallNs.Add(o.collectStallNs.Load())
	tm.spillWorkNs.Add(o.spillWorkNs.Load())
	tm.premergeNs.Add(o.premergeNs.Load())
	tm.drainWaitNs.Add(o.drainWaitNs.Load())
	tm.finalMergeNs.Add(o.finalMergeNs.Load())
	tm.spills.Add(o.spills.Load())
	tm.asyncSpills.Add(o.asyncSpills.Load())
	tm.premergedRuns.Add(o.premergedRuns.Load())
}

func (tm *spillTimings) stats() MapSpillStats {
	return MapSpillStats{
		CollectStall:  time.Duration(tm.collectStallNs.Load()),
		SpillWork:     time.Duration(tm.spillWorkNs.Load()),
		Premerge:      time.Duration(tm.premergeNs.Load()),
		DrainWait:     time.Duration(tm.drainWaitNs.Load()),
		FinalMerge:    time.Duration(tm.finalMergeNs.Load()),
		Spills:        tm.spills.Load(),
		AsyncSpills:   tm.asyncSpills.Load(),
		PremergedRuns: tm.premergedRuns.Load(),
	}
}

// MapSpillStats breaks down the map-side collect/spill pipeline across all
// winning map attempts. In the synchronous mode every spill stalls the
// collector, so CollectStall ~= SpillWork and AsyncSpills is 0; with the
// background spiller CollectStall shrinks to genuine backpressure and
// SpillWork runs concurrently with collection.
type MapSpillStats struct {
	CollectStall time.Duration // collector blocked waiting on spilling
	SpillWork    time.Duration // sort + combine + codec seal time (wherever it ran)
	Premerge     time.Duration // background block premerges of completed spills
	DrainWait    time.Duration // mapper waiting for the last spills after input close
	FinalMerge   time.Duration // mapper-side final merge + shuffle registration

	Spills        int64 // spills produced
	AsyncSpills   int64 // spills sealed on the background spiller
	PremergedRuns int64 // raw runs consumed by background premerges
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
// sealed segment per partition, combined/compressed per the job conf) or a
// premerged block standing in for a contiguous range of spills (always
// uncompressed and not yet re-combined — the final pass does both once, as
// the synchronous multi-spill path does).
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
	tm   *spillTimings

	wctrs *mapreduce.Counters // worker-private combine counters, merged at drain
	runs  []mapRun

	mu  sync.Mutex
	err error
}

// newSpillPipeline starts one map attempt's background spiller. tr.inflight
// (>=1) bounds sealed buffers awaiting the worker; the ring holds inflight+1
// buffers, so inflight=1 is the classic double buffer.
func newSpillPipeline(tr *TaskRunner, tm *spillTimings) *spillPipeline {
	sp := &spillPipeline{
		tr:    tr,
		ring:  kvbuf.NewBufferRing(tr.sortBytes, tr.numReduces, tr.inflight+1, tr.cmp),
		jobs:  make(chan *kvbuf.SortBuffer, tr.inflight+1),
		done:  make(chan struct{}),
		tm:    tm,
		wctrs: mapreduce.NewCounters(),
	}
	sp.ring.SetPrefixFunc(tr.prefix)
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
// ring immediately so the collector can reuse it), then combine and codec.
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
		segs, _ := buf.Spill()
		sp.ring.Put(buf)
		err := sp.tr.sealSegments(segs, sp.wctrs)
		sp.tm.addSpillWork(time.Since(t0))
		sp.tm.asyncSpills.Add(1)
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
// uncompressed block once they accumulate, bounding the final fan-in and
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
	block, err := sp.tr.premergeRuns(tail)
	if err != nil {
		return err
	}
	sp.runs = append(sp.runs[:len(sp.runs)-n], block)
	sp.tm.addPremerge(time.Since(t0))
	sp.tm.premergedRuns.Add(int64(n))
	return nil
}

// premergeRuns merges a contiguous range of raw spill runs into one block,
// partition by partition. No combine: the final pass runs the combiner once
// over the fully merged output, exactly like the synchronous multi-spill path.
func (tr *TaskRunner) premergeRuns(runs []mapRun) (mapRun, error) {
	out := make([]*kvbuf.Segment, len(runs[0].segs))
	for p := range out {
		merged, err := tr.mergePartition(runs, p)
		if err != nil {
			recycleSegs(out)
			return mapRun{}, err
		}
		out[p] = merged
	}
	return mapRun{segs: out, merged: true}, nil
}

// mergePartition merges partition p of position-ordered runs into one
// uncompressed segment, the step the background premerge and the mapper's
// final merge share: raw runs are decompressed when the conf compresses
// spills (premerged blocks never are), kvbuf.MergeAll merges them with
// positional tie-breaks, and the runs' partition buffers are recycled once
// their bytes live in the result.
func (tr *TaskRunner) mergePartition(runs []mapRun, p int) (*kvbuf.Segment, error) {
	parts := make([]*kvbuf.Segment, len(runs))
	for i, run := range runs {
		parts[i] = run.segs[p]
		if run.merged || tr.codec == nil {
			continue
		}
		d, err := parts[i].Decompress()
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		parts[i] = d
	}
	merged, _, err := kvbuf.MergeAll(tr.cmp, parts, tr.factor, 0)
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		if parts[i] != run.segs[p] {
			parts[i].Recycle() // decompression scratch
		}
		run.segs[p].Recycle()
	}
	return merged, nil
}

// drain closes the pipeline, waits for the worker to seal the tail spills,
// folds the worker's combine counters into the attempt's, and returns the
// completed runs in spill order.
func (sp *spillPipeline) drain(ctrs *mapreduce.Counters) ([]mapRun, error) {
	t0 := time.Now()
	close(sp.jobs)
	<-sp.done
	sp.tm.addDrainWait(time.Since(t0))
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

// sealSegments applies the per-spill seal path — combiner, then codec — to
// one spill's partition segments in place, the same transformation (same
// order, same counter increments) as the synchronous spill.
func (tr *TaskRunner) sealSegments(segs []*kvbuf.Segment, ctrs *mapreduce.Counters) error {
	if tr.job.Combiner != nil {
		for p, seg := range segs {
			if seg.Records() == 0 {
				continue
			}
			combined, err := tr.combineSegment(seg, ctrs)
			if err != nil {
				return err
			}
			seg.Recycle() // combineSegment copied what it kept
			segs[p] = combined
		}
	}
	if tr.codec != nil {
		// Compress at spill time, as Hadoop does: from here on the segment
		// is stored, merged (via decompress), and shuffled as compressed
		// bytes.
		for p, seg := range segs {
			z := kvbuf.CompressSegmentWith(seg, tr.codec)
			seg.Recycle()
			segs[p] = z
		}
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
