package localrun

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// renderShuffleResult merges a completed copy phase's sources (memory
// segments or mixed memory+disk inputs) into key=value lines, the same way
// the final reduce merge would read them.
func renderShuffleResult(t *testing.T, cmp writable.RawComparator, res *shuffleResult) string {
	t.Helper()
	var out bytes.Buffer
	emit := func(k, v []byte) error {
		fmt.Fprintf(&out, "%s=%s\n", k, v)
		return nil
	}
	if res.inputs != nil {
		srcs, open, err := openInputs(0, res.inputs)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, o := range open {
				o.Close()
			}
		}()
		if _, err := kvbuf.MergeSources(cmp, srcs, emit); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if _, err := kvbuf.MergeStream(cmp, res.parts, emit); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestBoundedBackpressureCompletes is the subscriber-lag regression for the
// bounded pool: with a 1-byte budget every admission waits on a background
// spill, so copiers spend most of the phase blocked inside store(). A blocked
// copier must be treated as in-progress work — not as a lagging subscriber to
// tear down — and the phase must close with every map fetched and every byte
// accounted for in the memory+disk input set.
func TestBoundedBackpressureCompletes(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const maps = 6
	for m := 0; m < maps; m++ {
		registerWordSegment(t, s, m, fmt.Sprintf("key-%d", m), "ok")
	}
	board := newCompletionBoard(maps)
	cmp, err := writable.Comparator("Text")
	if err != nil {
		t.Fatal(err)
	}
	tm := &mergeTimings{}
	ss := newStreamShuffle(copyRunner("Text", maps, 2, bounded(2, 1)), s.Addr(), 0, board, tm)
	for m := 0; m < maps; m++ {
		board.Announce(m, 0)
	}

	res, err := ss.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.cleanup()
	for m := 0; m < maps; m++ {
		if !res.fetched[m] {
			t.Errorf("map %d not fetched under admission backpressure", m)
		}
	}
	// A 1-byte pool cannot hold two segments, so the phase must have spilled.
	if res.inputs == nil || tm.diskRuns.Load() == 0 {
		t.Fatalf("budget=1 recorded no disk runs (inputs=%v, runs=%d)", res.inputs != nil, tm.diskRuns.Load())
	}
	out := renderShuffleResult(t, cmp, res)
	for m := 0; m < maps; m++ {
		if want := fmt.Sprintf("key-%d=ok", m); !strings.Contains(out, want) {
			t.Errorf("merged output missing %q:\n%s", want, out)
		}
	}
}

// TestBoundedShuffleAborts: cancellation must also unblock a bounded copy
// phase — including copiers parked on pool admission — not just the
// announcement wait.
func TestBoundedShuffleAborts(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 4
	registerWordSegment(t, s, 0, "k0", "v")
	registerWordSegment(t, s, 1, "k1", "v")
	board := newCompletionBoard(maps)
	board.Announce(0, 0)
	board.Announce(1, 0)
	ss := newStreamShuffle(copyRunner("Text", maps, 2, bounded(2, 1)), s.Addr(), 0, board, &mergeTimings{})

	done := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		res, err := ss.run(done)
		if res != nil && res.cleanup != nil {
			res.cleanup()
		}
		result <- err
	}()
	select {
	case err := <-result:
		t.Fatalf("run returned %v before cancellation with 2 maps unannounced", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	select {
	case err := <-result:
		if err != errShuffleAborted {
			t.Errorf("err = %v, want errShuffleAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bounded shuffle did not abort after done closed")
	}
}

// TestBoundedRunByteIdenticalAndMultiPass is the bounded pool's acceptance
// check: a job whose shuffle volume exceeds the pool budget must complete
// through multi-pass disk merging, and at every budget the output bytes must
// be identical to the unbounded barrier run. The order variants run the
// arrival-order job (12 maps, so fan-in 10 still needs a disk pass) at
// fan-ins 2, 3 and 10, plain and with codec + combiner: a pool spill or disk
// pass that lets a later map's tie through first changes their bytes.
func TestBoundedRunByteIdenticalAndMultiPass(t *testing.T) {
	text, _ := corpus()
	type variant struct {
		name   string
		maps   int
		factor int
		build  func() (*mapreduce.Job, *mapreduce.MemoryOutput)
	}
	variants := []variant{{"wordcount", 8, 2, func() (*mapreduce.Job, *mapreduce.MemoryOutput) {
		return wordCountJob(text, 8, 3, false)
	}}}
	for _, factor := range []int{2, 3, 10} {
		for _, on := range []bool{false, true} {
			on := on
			variants = append(variants, variant{
				fmt.Sprintf("order/factor=%d/combiner+codec=%v", factor, on), 12, factor,
				func() (*mapreduce.Job, *mapreduce.MemoryOutput) {
					job, out := orderJob(text, 12, 3, on)
					job.Conf.SetBool(mapreduce.ConfCompressMapOut, on)
					return job, out
				}})
		}
	}
	for _, v := range variants {
		barrier, barrierOut := v.build()
		barrier.Conf.SetInt(mapreduce.ConfIOSortFactor, v.factor)
		if _, err := Run(slowstart(barrier, 1.0), nil); err != nil {
			t.Fatal(err)
		}
		want := renderOutput(barrierOut, 3)

		for _, budget := range []int64{1, 512, 1 << 20} {
			job, out := v.build()
			slowstart(job, 0.25).Conf.
				SetInt(mapreduce.ConfShuffleInputBufBytes, int(budget)).
				SetInt(mapreduce.ConfIOSortFactor, v.factor)
			res, err := Run(job, &Options{MapParallelism: 2, ReduceParallelism: 2, ParallelCopies: 1})
			if err != nil {
				t.Fatalf("%s budget=%d: %v", v.name, budget, err)
			}
			if got := renderOutput(out, 3); got != want {
				t.Errorf("%s budget=%d output differs from the unbounded barrier path", v.name, budget)
			}
			if budget > 1 {
				continue
			}
			// budget=1: no two segments ever share the pool, so every reduce
			// must have spilled nearly all its inputs and merged them in
			// intermediate passes.
			rm := res.ReduceMerge
			if rm.DiskRuns == 0 || rm.DiskPasses == 0 || rm.SpilledRecords == 0 || rm.SpilledBytes == 0 {
				t.Errorf("%s budget=1 stats %+v: want disk runs, passes and spilled records > 0", v.name, rm)
			}
			if got := res.Counters.Task(mapreduce.CtrSpilledRecords); got == 0 {
				t.Errorf("%s budget=1 SPILLED_RECORDS = 0, want reduce-side spills counted", v.name)
			}
			if got := res.Counters.Task(mapreduce.CtrMergedMapOutputs); got != int64(v.maps)*3 {
				t.Errorf("%s MERGED_MAP_OUTPUTS = %d, want %d", v.name, got, v.maps*3)
			}
		}
	}
}

// TestBoundedRunCompressedAndCombiner: the bounded path must compose with
// compressed map output (spill runs stored compressed) and combiners, still
// byte-identical to the unbounded run of the same job.
func TestBoundedRunCompressedAndCombiner(t *testing.T) {
	text, _ := corpus()
	base, baseOut := wordCountJob(text, 6, 2, true)
	base.Conf.Set(mapreduce.ConfCompressMapOut, "true")
	if _, err := Run(slowstart(base, 1.0), nil); err != nil {
		t.Fatal(err)
	}
	want := renderOutput(baseOut, 2)

	job, out := wordCountJob(text, 6, 2, true)
	job.Conf.Set(mapreduce.ConfCompressMapOut, "true")
	slowstart(job, 0.25).Conf.
		SetInt(mapreduce.ConfShuffleInputBufBytes, 1).
		SetInt(mapreduce.ConfIOSortFactor, 2)
	res, err := Run(job, &Options{ParallelCopies: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderOutput(out, 2); got != want {
		t.Error("bounded compressed+combined output differs from the unbounded run")
	}
	if res.ReduceMerge.DiskRuns == 0 {
		t.Errorf("stats %+v: compressed bounded run spilled nothing", res.ReduceMerge)
	}
}
