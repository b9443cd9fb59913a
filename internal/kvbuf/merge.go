package kvbuf

import (
	"fmt"
	"runtime"
	"sync"

	"mrmicro/internal/writable"
)

// MergeStream k-way merges the segments in key order and calls emit for
// every record. It returns the number of key comparisons performed (which
// the simulated engines convert to CPU time).
func MergeStream(cmp writable.RawComparator, segs []*Segment, emit func(key, val []byte) error) (comparisons int64, err error) {
	srcs := make([]RecordSource, len(segs))
	for i, s := range segs {
		srcs[i] = s.NewReader()
	}
	return MergeSources(cmp, srcs, emit)
}

// Merge k-way merges segments into a single new segment.
func Merge(cmp writable.RawComparator, segs []*Segment) (*Segment, int64, error) {
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	w := NewWriter(total)
	comparisons, err := MergeStream(cmp, segs, func(k, v []byte) error {
		w.Append(k, v)
		return nil
	})
	if err != nil {
		return nil, comparisons, err
	}
	return w.Close(), comparisons, nil
}

// MergePasses plans a Hadoop-style multi-pass merge: with fan-in factor F
// and n segments, intermediate passes reduce the segment count until one
// final pass covers the rest. It returns, per intermediate pass, how many
// segments that pass merges (the final pass is implicit). The first pass
// takes just enough segments to make the remainder congruent, as Hadoop's
// Merger does to minimize total passes.
func MergePasses(n, factor int) []int {
	if factor < 2 {
		factor = 2
	}
	var passes []int
	for n > factor {
		take := factor
		if rem := (n - 1) % (factor - 1); rem != 0 && len(passes) == 0 {
			take = rem + 1
		}
		passes = append(passes, take)
		n = n - take + 1
	}
	return passes
}

// MergeWave plans one pass of an adjacency-preserving multi-pass merge: it
// partitions n position-ordered runs into consecutive groups, each merged
// to a single run, returning the group sizes (nil when n <= factor and no
// intermediate pass is needed). It is MergePasses' positional sibling:
// MergePasses' FIFO schedule (used for map-side spills, whose segment
// identity does not outlive the task) can merge runs whose coverage
// interleaves, but a reduce-side disk merge must only ever combine runs
// covering adjacent map-index ranges, or positional tie-breaking — and with
// it output byte-identity against a flat merge — would not survive the
// pass. Groups are balanced to within one run so a wave's merges
// parallelize evenly; a size-1 group passes its run through unmerged.
func MergeWave(n, factor int) []int {
	if factor < 2 {
		factor = 2
	}
	if n <= factor {
		return nil
	}
	g := (n + factor - 1) / factor
	sizes := make([]int, g)
	base, extra := n/g, n%g
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// mergeIntermediate executes every intermediate pass of the MergePasses
// plan, leaving at most factor segments for the caller's final merge. It
// returns those final segments plus, per segment, whether this function
// created it (scratch: safe to Recycle once its bytes were copied onward).
//
// Passes are grouped into waves: a wave is the longest run of consecutive
// plan entries whose inputs are all materialized already, and the merges of
// a wave read disjoint inputs, so they run concurrently (bounded by
// parallelism; <= 0 means GOMAXPROCS). Scheduling does not change the
// byte-level result: segment order, tie-breaking and the comparison count
// are identical to running the plan sequentially.
func mergeIntermediate(cmp writable.RawComparator, segs []*Segment, factor, parallelism int) (final []*Segment, scratch []bool, comparisons int64, err error) {
	plan := MergePasses(len(segs), factor)
	if len(plan) == 0 {
		return segs, make([]bool, len(segs)), 0, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	work := make([]*Segment, len(segs), len(segs)+len(plan))
	copy(work, segs)
	owned := make([]bool, len(segs), len(segs)+len(plan))
	pos := 0
	i := 0
	for i < len(plan) {
		taken := 0
		var wave []int
		for i < len(plan) && taken+plan[i] <= len(work)-pos {
			taken += plan[i]
			wave = append(wave, plan[i])
			i++
		}
		if len(wave) == 0 {
			return nil, nil, comparisons, fmt.Errorf("kvbuf: merge plan starved (%d segments, factor %d)", len(segs), factor)
		}
		outs := make([]*Segment, len(wave))
		comps := make([]int64, len(wave))
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		sem := make(chan struct{}, parallelism)
		off := pos
		for j, take := range wave {
			in := work[off : off+take]
			off += take
			wg.Add(1)
			sem <- struct{}{}
			go func(j int, in []*Segment) {
				defer wg.Done()
				defer func() { <-sem }()
				outs[j], comps[j], errs[j] = Merge(cmp, in)
			}(j, in)
		}
		wg.Wait()
		for j := range wave {
			if errs[j] != nil {
				return nil, nil, comparisons, errs[j]
			}
			comparisons += comps[j]
		}
		// The consumed inputs' bytes now live in the wave outputs; recycle
		// the ones this plan created (never the caller's segments).
		for k := pos; k < pos+taken; k++ {
			if owned[k] {
				work[k].Recycle()
			}
			work[k] = nil
		}
		pos += taken
		for _, o := range outs {
			work = append(work, o)
			owned = append(owned, true)
		}
	}
	return work[pos:], owned[pos:], comparisons, nil
}

// MergeAll merges any number of segments into a single segment while
// honoring the io.sort.factor fan-in bound: intermediate passes (run
// concurrently, scratch buffers recycled) reduce the count to at most
// factor, then one final merge produces the output. With n <= factor it is
// exactly Merge. parallelism <= 0 uses GOMAXPROCS.
func MergeAll(cmp writable.RawComparator, segs []*Segment, factor, parallelism int) (*Segment, int64, error) {
	final, scratch, comparisons, err := mergeIntermediate(cmp, segs, factor, parallelism)
	if err != nil {
		return nil, comparisons, err
	}
	out, comps, err := Merge(cmp, final)
	comparisons += comps
	if err != nil {
		return nil, comparisons, err
	}
	for i, s := range final {
		if scratch[i] {
			s.Recycle()
		}
	}
	return out, comparisons, nil
}
