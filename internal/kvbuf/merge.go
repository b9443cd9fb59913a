package kvbuf

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mrmicro/internal/writable"
)

// MergeStream k-way merges the segments in key order by the comparator alone
// (writable.ByComparator), calls emit for every record, and returns the
// number of key comparisons performed.
func MergeStream(cmp writable.RawComparator, segs []*Segment, emit func(key, val []byte) error) (comparisons int64, err error) {
	return MergeSources(writable.ByComparator(cmp), readers(segs), emit)
}

func readers(segs []*Segment) []RecordSource {
	srcs := make([]RecordSource, len(segs))
	for i, s := range segs {
		srcs[i] = s.NewReader()
	}
	return srcs
}

// Merge k-way merges segments into a single new segment. A record the merge
// reports as a repeat (SourceMerger.Repeat: same source, byte-identical key)
// is marked in the output, so the marks of its inputs outlive the merge.
func Merge(order writable.KeyOrder, segs []*Segment) (*Segment, int64, error) {
	total, records := 0, 0
	for _, s := range segs {
		total += s.Len()
		records += max(s.Records(), 0)
	}
	w := NewWriter(total)
	w.markHint = records
	m, err := NewSourceMerger(order, readers(segs))
	if err != nil {
		return nil, 0, err // priming compares nothing
	}
	for {
		k, v, ok, err := m.Next()
		if err != nil {
			return nil, m.comps, err
		}
		if !ok {
			return w.Close(), m.comps, nil
		}
		w.Append(k, v)
		if m.Repeat() {
			w.mark()
		}
	}
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

// MergeInPlace executes the MergePasses plan over position-ordered items and
// returns the at most factor items left for the caller's final merge. Each
// pass hands merge the next take adjacent items and its result takes their
// slot, so only position-adjacent items ever merge: as long as merge breaks
// key ties by position in its group, the final merge emits the bytes of one
// flat merge of the original items, whatever n, factor or parallelism
// (TestMergeAllMatchesSequentialMerge). A sweep is the longest run of plan
// entries that fits left to right over the current list; its passes read
// disjoint items and run concurrently (parallelism <= 0 means GOMAXPROCS).
// merge owns the group it is handed and releases what it consumed.
func MergeInPlace[T any](items []T, factor, parallelism int, merge func(group []T) (T, error)) ([]T, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	// A sweep always starts with more than factor items (that is when the
	// plan still has an entry) and no pass takes more than factor, so every
	// sweep runs at least one pass and the loop ends.
	for plan := MergePasses(len(items), factor); len(plan) > 0; {
		fit, covered := 0, 0
		for fit < len(plan) && covered+plan[fit] <= len(items) {
			covered += plan[fit]
			fit++
		}
		next := make([]T, fit, fit+len(items)-covered)
		errs := make([]error, fit)
		sem := make(chan struct{}, parallelism)
		var wg sync.WaitGroup
		off := 0
		for j, take := range plan[:fit] {
			group := items[off : off+take]
			off += take
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				next[j], errs[j] = merge(group)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		items, plan = append(next, items[covered:]...), plan[fit:]
	}
	return items, nil
}

// MergeAll merges any number of segments into a single segment while
// honoring the io.sort.factor fan-in bound: MergeInPlace's intermediate
// passes (scratch outputs recycled once consumed) reduce the count to at
// most factor, then one final merge produces the output — byte for byte what
// Merge produces over the same segments. parallelism <= 0 uses GOMAXPROCS.
func MergeAll(order writable.KeyOrder, segs []*Segment, factor, parallelism int) (*Segment, int64, error) {
	type item struct {
		seg     *Segment
		scratch bool // made by a pass here, never the caller's
	}
	var comparisons atomic.Int64
	mergeGroup := func(group []item) (item, error) {
		in := make([]*Segment, len(group))
		for i, it := range group {
			in[i] = it.seg
		}
		out, comps, err := Merge(order, in)
		comparisons.Add(comps)
		if err != nil {
			return item{}, err
		}
		for _, it := range group {
			if it.scratch {
				it.seg.Recycle()
			}
		}
		return item{seg: out, scratch: true}, nil
	}
	items := make([]item, len(segs))
	for i, s := range segs {
		items[i].seg = s
	}
	items, err := MergeInPlace(items, factor, parallelism, mergeGroup)
	if err != nil {
		return nil, comparisons.Load(), err
	}
	out, err := mergeGroup(items)
	return out.seg, comparisons.Load(), err
}
