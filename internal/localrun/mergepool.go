// mergepool.go is the memory-bounded side of the overlapped copy phase:
// Hadoop's reduce-side MergeManager. Fetched segments are admitted into a
// pool bounded by mapreduce.reduce.shuffle.input.buffer.bytes (the absolute
// form of Hadoop's input.buffer.percent); when the pool crosses the merge
// threshold — or a copier is blocked waiting for room — a background merger
// compacts a contiguous range of in-memory segments into one sorted on-disk
// run (IFile spill format, compressed when the job compresses map output)
// while the copiers keep fetching. The final reduce pass merges the mixed
// memory+disk run set. Every run covers a contiguous range of map indices,
// every merge tie-breaks equal keys by source position, and every pass —
// inside a spill's in-memory merge and in the disk passes — combines adjacent
// runs and puts the result in their place (kvbuf.MergeInPlace), so the output
// bytes are those of the unbounded all-in-memory merge: the budget is
// invisible in the job's output, visible only in its memory ceiling
// (TestBoundedRunByteIdenticalAndMultiPass, order-revealing job included).
package localrun

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
)

// ReduceMergeStats breaks down the reduce-side merge pipeline's work across
// all winning reduce attempts: where the copy phase waited, what moved to
// disk, and how long the merge passes took. All-zero (except FinalMerge)
// when the pool is unbounded and nothing spilled.
type ReduceMergeStats struct {
	FetchWait  time.Duration // copier time blocked on pool admission
	MemMerge   time.Duration // in-memory merges feeding spills
	DiskPass   time.Duration // spill-run writes + intermediate disk merges
	FinalMerge time.Duration // final merge + reduce pass (sort+reduce tail)

	DiskRuns       int64 // on-disk runs created by pool spills
	DiskPasses     int64 // intermediate disk merge passes (each writes one run)
	SpilledRecords int64 // records written to reduce-side disk runs
	SpilledBytes   int64 // bytes written to reduce-side disk runs

	// MergeComparisons counts the key comparisons of every reduce-side
	// merge: pool spills, disk passes and the final merge (SourceMerger).
	MergeComparisons int64
}

// runDir owns the run files one reduce attempt writes, so removeAll also
// drops those the last merge pass wrote, which no later pass consumes.
type runDir struct {
	mu   sync.Mutex
	runs []*diskRun
}

// newRun records the run written to f as rd's.
func (rd *runDir) newRun(f *os.File, lo, hi int, bytes int64, compressed bool) *diskRun {
	run := &diskRun{lo: lo, hi: hi, f: f, bytes: bytes, compressed: compressed}
	rd.mu.Lock()
	rd.runs = append(rd.runs, run)
	rd.mu.Unlock()
	return run
}

func (rd *runDir) removeAll() {
	rd.mu.Lock()
	for _, run := range rd.runs {
		run.drop()
	}
	rd.mu.Unlock()
}

// diskRun is one sorted on-disk run covering the contiguous map-index range
// [lo, hi): a pool spill's output, or an intermediate disk merge's.
type diskRun struct {
	lo, hi     int
	f          *os.File
	bytes      int64
	compressed bool
}

// drop closes and deletes the run's file; idempotent.
func (dr *diskRun) drop() {
	if dr.f != nil {
		dr.f.Close()
		os.Remove(dr.f.Name())
		dr.f = nil
	}
}

// open returns a streaming reader over the run. Concurrent opens are safe:
// readers use ReadAt through a section reader, never the shared file offset.
func (dr *diskRun) open() (*kvbuf.RunReader, error) {
	return kvbuf.NewRunReader(io.NewSectionReader(dr.f, 0, dr.bytes), dr.compressed)
}

// mergeInput is one final-merge source: an in-memory segment (hi == lo+1)
// or an on-disk run, covering map indices [lo, hi).
type mergeInput struct {
	lo, hi int
	seg    *kvbuf.Segment
	run    *diskRun
}

// admitLocked blocks until a fetched segment of sz bytes fits in the memory
// pool, kicking the background spiller to make room. A segment larger than
// the whole budget is admitted alone once the pool drains — oversized inputs
// degrade to disk merging instead of deadlocking. Returns false when the
// phase is ending (error or abort) and the caller must drop the segment.
// ss.mu held.
func (ss *streamShuffle) admitLocked(sz int64) bool {
	var blocked time.Time
	ss.admitWaiters++
	for ss.err == nil && !ss.aborted && ss.poolUsed > 0 && ss.poolUsed+sz > ss.tr.memBudget {
		// Pooled bytes are either in segs or inside the running spill, so a
		// spill is in flight after this call and its completion wakes us.
		ss.maybeSpillLocked()
		if blocked.IsZero() {
			blocked = time.Now()
		}
		ss.cond.Wait()
	}
	ss.admitWaiters--
	if !blocked.IsZero() {
		ss.tm.since(fetchWait, blocked)
	}
	if ss.err != nil || ss.aborted {
		return false
	}
	ss.poolUsed += sz
	return true
}

// maybeSpillLocked starts a background spill when the pool has crossed the
// merge threshold or a copier is blocked on admission. One spill runs at a
// time (it re-kicks itself on completion); a spill takes the longest
// contiguous range of pooled segments so the resulting run's coverage stays
// mergeable by position. ss.mu held.
func (ss *streamShuffle) maybeSpillLocked() {
	if ss.tr.memBudget <= 0 || ss.spilling {
		return
	}
	if ss.poolUsed < ss.tr.spillAbove && ss.admitWaiters == 0 {
		return
	}
	if ss.admitWaiters == 0 && ss.allFetched() {
		return // everything fetched and it fits: leave it to the final merge
	}
	lo, hi := ss.pickSpillRangeLocked()
	if lo >= hi {
		return
	}
	members := make([]*kvbuf.Segment, 0, hi-lo)
	for m := lo; m < hi; m++ {
		members = append(members, ss.segs[m])
		ss.segs[m] = nil
	}
	ss.spilling = true
	ss.mergeWG.Add(1)
	go ss.spillRun(lo, hi, members)
}

// pickSpillRangeLocked returns the longest contiguous range of pooled
// segments. ss.mu held.
func (ss *streamShuffle) pickSpillRangeLocked() (lo, hi int) {
	m := 0
	for m < ss.numMaps {
		if ss.segs[m] == nil {
			m++
			continue
		}
		start := m
		for m < ss.numMaps && ss.segs[m] != nil {
			m++
		}
		if m-start > hi-lo {
			lo, hi = start, m
		}
	}
	return lo, hi
}

// spillRun merges members (maps [lo, hi), already detached from the pool's
// index) into one sorted run, writes it to disk and records it. poolUsed
// stays charged until the member buffers are recycled, so admission cannot
// overshoot while the merge holds both the inputs and its output.
func (ss *streamShuffle) spillRun(lo, hi int, members []*kvbuf.Segment) {
	defer ss.mergeWG.Done()
	t0 := time.Now()
	merged, comps, err := kvbuf.MergeAll(ss.tr.order, members, ss.tr.factor, 0)
	ss.tm.since(memMerge, t0)
	ss.tm.add(reduceMergeComps, comps)
	var (
		run     *diskRun
		records int64
	)
	if err == nil {
		records = int64(merged.Records())
		out := merged
		compressed := false
		if ss.tr.codec != nil {
			z := kvbuf.CompressSegmentWith(merged, ss.tr.codec)
			merged.Recycle()
			out = z
			compressed = true
		}
		t1 := time.Now()
		run, err = writeRunFile(&ss.rdir, ss.tr.dir, out, lo, hi, compressed)
		ss.tm.since(diskPass, t1)
		out.Recycle()
	}
	var freed int64
	for _, s := range members {
		freed += int64(s.Len())
		s.Recycle()
	}
	ss.mu.Lock()
	ss.spilling = false
	ss.poolUsed -= freed
	if err != nil {
		if ss.err == nil {
			ss.err = fmt.Errorf("localrun: reduce %d merge spill maps [%d,%d): %w", ss.reduce, lo, hi, err)
		}
	} else {
		ss.runs = append(ss.runs, run)
		ss.tm.add(diskRuns, 1)
		ss.tm.add(spilledRecs, records)
		ss.tm.add(spilledBytes, run.bytes)
	}
	ss.maybeSpillLocked() // the pool may still be over threshold / starved
	ss.cond.Broadcast()
	ss.mu.Unlock()
}

func writeRunFile(rd *runDir, dir string, seg *kvbuf.Segment, lo, hi int, compressed bool) (*diskRun, error) {
	f, err := os.CreateTemp(dir, "mrmicro-run-*.ifile")
	if err != nil {
		return nil, err
	}
	if _, err := seg.WriteTo(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("localrun: writing merge run: %w", err)
	}
	return rd.newRun(f, lo, hi, int64(seg.Len()), compressed), nil
}

// boundedInputsLocked assembles the final merge's mixed memory+disk source
// list in map order and verifies it covers every map exactly once. A hole
// is a phase-accounting bug surfaced as a task error (the attempt retries)
// rather than silently dropped input. ss.mu held.
func (ss *streamShuffle) boundedInputsLocked() ([]mergeInput, error) {
	inputs := make([]mergeInput, 0, len(ss.runs)+ss.numMaps)
	for _, run := range ss.runs {
		inputs = append(inputs, mergeInput{lo: run.lo, hi: run.hi, run: run})
	}
	for m, s := range ss.segs {
		if s != nil {
			inputs = append(inputs, mergeInput{lo: m, hi: m + 1, seg: s})
		}
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].lo < inputs[j].lo })
	next := 0
	for _, in := range inputs {
		if in.lo != next {
			return nil, fmt.Errorf("localrun: reduce %d merge inputs have a hole at map %d", ss.reduce, next)
		}
		next = in.hi
	}
	if next != ss.numMaps {
		return nil, fmt.Errorf("localrun: reduce %d merge inputs end at map %d of %d", ss.reduce, next, ss.numMaps)
	}
	return inputs, nil
}

// releaseAll returns every buffer and disk artifact the copy phase still
// owns: remaining pooled segments, and every run file it made. The reduce
// task calls it (via shuffleResult.cleanup) once the reduce pass no longer
// references the merge inputs; Recycle and drop are idempotent, so inputs
// consumed early by intermediate merge passes are skipped naturally.
func (ss *streamShuffle) releaseAll() {
	ss.mu.Lock()
	for _, s := range ss.segs {
		if s != nil {
			s.Recycle()
		}
	}
	ss.mu.Unlock()
	ss.rdir.removeAll()
}

// openInputs turns merge inputs into record sources, returning the run
// readers that need closing.
func openInputs(r int, inputs []mergeInput) ([]kvbuf.RecordSource, []*kvbuf.RunReader, error) {
	srcs := make([]kvbuf.RecordSource, len(inputs))
	var open []*kvbuf.RunReader
	for i, in := range inputs {
		if in.seg != nil {
			srcs[i] = in.seg.NewReader()
			continue
		}
		rr, err := in.run.open()
		if err != nil {
			for _, o := range open {
				o.Close()
			}
			return nil, nil, fmt.Errorf("localrun: reduce %d opening run maps [%d,%d): %w", r, in.lo, in.hi, err)
		}
		srcs[i] = rr
		open = append(open, rr)
	}
	return srcs, open, nil
}

// intermediateMerges reduces the input count to at most factor with the
// disk passes of the one merge plan (kvbuf.MergeInPlace): each pass streams
// adjacent inputs into a new on-disk run that takes their place, so
// positional tie-breaking — and with it output byte-identity — survives
// every pass. Consumed inputs are recycled/deleted as their pass completes.
func (tr *TaskRunner) intermediateMerges(r int, inputs []mergeInput, rdir *runDir, tm *tally) ([]mergeInput, error) {
	return kvbuf.MergeInPlace(inputs, tr.factor, 0, func(group []mergeInput) (mergeInput, error) {
		tm.add(diskPasses, 1)
		return tr.mergeRunGroup(r, group, rdir, tm)
	})
}

// mergeRunGroup streams one group of adjacent inputs into a new raw on-disk
// run, then releases the consumed inputs. Intermediate outputs stay
// uncompressed: they are short-lived local scratch, and the one-shot codec
// would force materializing the merged bytes in memory — exactly what the
// bounded pipeline exists to avoid.
func (tr *TaskRunner) mergeRunGroup(r int, in []mergeInput, rdir *runDir, tm *tally) (mergeInput, error) {
	defer tm.since(diskPass, time.Now())
	srcs, open, err := openInputs(r, in)
	if err != nil {
		return mergeInput{}, err
	}
	defer func() {
		for _, o := range open {
			o.Close()
		}
	}()
	f, err := os.CreateTemp(tr.dir, "mrmicro-run-*.ifile")
	if err != nil {
		return mergeInput{}, err
	}
	sw := kvbuf.NewStreamWriter(f)
	comps, err := kvbuf.MergeSources(tr.order, srcs, sw.Append)
	tm.add(reduceMergeComps, comps)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return mergeInput{}, fmt.Errorf("localrun: reduce %d disk merge maps [%d,%d): %w", r, in[0].lo, in[len(in)-1].hi, err)
	}
	records, bytes, err := sw.Close()
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return mergeInput{}, fmt.Errorf("localrun: reduce %d disk merge maps [%d,%d): %w", r, in[0].lo, in[len(in)-1].hi, err)
	}
	for _, m := range in {
		if m.seg != nil {
			m.seg.Recycle()
		} else {
			m.run.drop()
		}
	}
	tm.add(spilledRecs, records)
	tm.add(spilledBytes, bytes)
	out := rdir.newRun(f, in[0].lo, in[len(in)-1].hi, bytes, false)
	return mergeInput{lo: out.lo, hi: out.hi, run: out}, nil
}

// reduceOverInputs runs the reduce tail over a position-ordered mix of
// in-memory segments and on-disk runs: intermediate disk passes bound the
// final fan-in to io.sort.factor, then the same streaming tail takes over —
// so a reduce whose shuffle volume exceeds RAM completes, emitting the bytes
// reduceOverParts would over the same fetched segments (adjacent-only
// merging preserves positional tie-breaks).
func (tr *TaskRunner) reduceOverInputs(r int, inputs []mergeInput, rdir *runDir, tm *tally, ctrs *mapreduce.Counters, rep mapreduce.Reporter) error {
	inputs, err := tr.intermediateMerges(r, inputs, rdir, tm)
	if err != nil {
		return err
	}
	defer tm.since(reduceFinalMerge, time.Now())

	srcs, open, err := openInputs(r, inputs)
	if err != nil {
		return err
	}
	defer func() {
		for _, o := range open {
			o.Close()
		}
	}()
	return tr.reduceSources(r, srcs, tm, ctrs, rep)
}
