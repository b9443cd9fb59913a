package localrun

import (
	"sync/atomic"
	"time"
)

// stat names one figure of the executor's breakdown: a field of
// MapSpillStats or ReduceMergeStats. Durations are kept in nanoseconds.
type stat int

const (
	// Map side (MapSpillStats).
	collectStall  stat = iota // collector blocked: ring empty (async) or spilling inline (sync)
	spillWork                 // sort + combine seal work
	premerge                  // background block premerges
	drainWait                 // mapper waiting for the spiller to finish after close
	mapFinalMerge             // mapper-side final merge + register
	spills                    // spills produced
	asyncSpills               // spills sealed on the background spiller
	premergedRuns             // raw runs consumed by background premerges
	sortComps                 // key comparisons the spills' sorts made
	mapMergeComps             // key comparisons the map-side merges and combines made

	// Reduce side (ReduceMergeStats).
	fetchWait        // copier time blocked on pool admission
	memMerge         // in-memory merges feeding spills
	diskPass         // writing spill runs + intermediate disk merges
	reduceFinalMerge // final merge + reduce pass
	diskRuns         // runs created by pool spills
	diskPasses       // intermediate disk merge passes
	spilledRecs      // records written to reduce-side disk runs
	spilledBytes     // bytes written to reduce-side disk runs
	reduceMergeComps // key comparisons the reduce-side merges made

	numStats
)

// tally is one attempt's breakdown, or a job's total of winning attempts.
// Atomics because the collector and the background spiller, and a reduce's
// copiers, pool spills and merge passes, record concurrently. A task body
// absorbs its attempt's tally into the runner's total only when the attempt
// succeeds: only the winning attempt's work counts, as only its counters do.
type tally [numStats]atomic.Int64

func (t *tally) add(s stat, n int64) { t[s].Add(n) }

// since adds the time elapsed from t0: defer t.since(s, time.Now()) times
// the rest of the calling function.
func (t *tally) since(s stat, t0 time.Time) { t[s].Add(int64(time.Since(t0))) }

func (t *tally) absorb(o *tally) {
	for s := range o {
		t[s].Add(o[s].Load())
	}
}

func (t *tally) mapSpill() MapSpillStats {
	return MapSpillStats{
		CollectStall:  time.Duration(t[collectStall].Load()),
		SpillWork:     time.Duration(t[spillWork].Load()),
		Premerge:      time.Duration(t[premerge].Load()),
		DrainWait:     time.Duration(t[drainWait].Load()),
		FinalMerge:    time.Duration(t[mapFinalMerge].Load()),
		Spills:        t[spills].Load(),
		AsyncSpills:   t[asyncSpills].Load(),
		PremergedRuns: t[premergedRuns].Load(),

		SortComparisons:  t[sortComps].Load(),
		MergeComparisons: t[mapMergeComps].Load(),
	}
}

func (t *tally) reduceMerge() ReduceMergeStats {
	return ReduceMergeStats{
		FetchWait:      time.Duration(t[fetchWait].Load()),
		MemMerge:       time.Duration(t[memMerge].Load()),
		DiskPass:       time.Duration(t[diskPass].Load()),
		FinalMerge:     time.Duration(t[reduceFinalMerge].Load()),
		DiskRuns:       t[diskRuns].Load(),
		DiskPasses:     t[diskPasses].Load(),
		SpilledRecords: t[spilledRecs].Load(),
		SpilledBytes:   t[spilledBytes].Load(),

		MergeComparisons: t[reduceMergeComps].Load(),
	}
}
