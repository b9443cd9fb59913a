package localrun

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

func TestSlowstartTarget(t *testing.T) {
	cases := []struct {
		frac    float64
		numMaps int
		want    int
	}{
		{0.05, 100, 5},
		{0.05, 4, 1}, // clamps up to one map
		{1.0, 8, 8},  // barrier-equivalent
		{0.5, 7, 3},  // truncates like mrsim's SlowstartTarget
		{1.0, 1, 1},
		{0.99, 1, 1},
	}
	for _, c := range cases {
		if got := slowstartTarget(c.frac, c.numMaps); got != c.want {
			t.Errorf("slowstartTarget(%v, %d) = %d, want %d", c.frac, c.numMaps, got, c.want)
		}
	}
}

func TestCompletionBoardVersionsAndWait(t *testing.T) {
	b := newCompletionBoard(3)
	if got := b.CommittedMaps(); got != 0 {
		t.Fatalf("fresh board committed = %d", got)
	}
	snap := make([]int, 3)
	next := b.poll(snap)
	b.Announce(1, 0)
	select {
	case <-next:
	default:
		t.Fatal("announce did not wake the broadcast channel")
	}
	b.Announce(0, 2)
	if got := b.CommittedMaps(); got != 2 {
		t.Fatalf("committed = %d, want 2", got)
	}
	b.poll(snap)
	if snap[0] != 2 || snap[1] != 0 || snap[2] != -1 {
		t.Errorf("committed attempts = %v, want [2 0 -1]", snap)
	}

	// waitCommitted returns once the threshold lands, and aborts on done.
	ready := make(chan bool)
	go func() { ready <- b.waitCommitted(3, nil) }()
	b.Announce(2, 0)
	if !<-ready {
		t.Error("waitCommitted(3) returned false after 3 commits")
	}
	done := make(chan struct{})
	go func() { ready <- b.waitCommitted(4, done) }()
	close(done)
	if <-ready {
		t.Error("waitCommitted past numMaps returned true after cancel")
	}
}

// TestSecondAnnounceRejected: a map commits once. Announcing it again is a
// scheduler bug that must fail loudly and leave the board as it was — no
// subscriber woken, no count or attempt changed — because reducers may
// already hold the first attempt's bytes.
func TestSecondAnnounceRejected(t *testing.T) {
	b := newCompletionBoard(2)
	b.Announce(1, 0)
	snap := make([]int, 2)
	next := b.poll(snap)
	last := b.LastCommit()

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "map 1 announced twice") {
				t.Errorf("second Announce: recovered %v, want an announced-twice panic", r)
			}
		}()
		b.Announce(1, 1)
	}()

	select {
	case <-next:
		t.Error("rejected announce woke subscribers")
	default:
	}
	b.poll(snap)
	if snap[1] != 0 || b.CommittedMaps() != 1 || !b.LastCommit().Equal(last) {
		t.Errorf("rejected announce changed the board: attempt %d, committed %d", snap[1], b.CommittedMaps())
	}
	b.Announce(0, 0) // the board is still usable (lock released by the panic path)
	if got := b.CommittedMaps(); got != 2 {
		t.Errorf("committed = %d after a rejected announce, want 2", got)
	}
}

// TestParallelForFastFail pins the satellite fix: after the first error no
// further index may be dispatched (in-flight calls finish, the rest never
// start).
func TestParallelForFastFail(t *testing.T) {
	const n, workers = 1000, 4
	var calls atomic.Int64
	err := parallelFor(n, workers, func(i int) error {
		calls.Add(1)
		return fmt.Errorf("boom at %d", i)
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	// At most the in-flight set plus one blocked send can run after the
	// first failure; anything near n means the loop kept dispatching.
	if got := calls.Load(); got > 2*workers {
		t.Errorf("dispatched %d calls after first error, want <= %d", got, 2*workers)
	}
}

// TestSchedulerFastFail pins the same property on the unified scheduler: a
// failing map task stops the job from launching the remaining maps.
func TestSchedulerFastFail(t *testing.T) {
	text, _ := corpus()
	job, _ := wordCountJob(text, 16, 2, false)
	var started atomic.Int64
	inner := job.Mapper
	job.Mapper = func() mapreduce.Mapper {
		m := inner()
		return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, rep mapreduce.Reporter) error {
			if started.Add(1) == 1 {
				return fmt.Errorf("injected mapper failure")
			}
			time.Sleep(time.Millisecond)
			return m.Map(k, v, o, rep)
		})
	}
	_, err := Run(job, &Options{MapParallelism: 2, ReduceParallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "injected mapper failure") {
		t.Fatalf("err = %v, want injected mapper failure", err)
	}
	// 16 maps × many records each: if dispatch kept going after the failure
	// the count would be far larger than the handful of in-flight tasks.
	if got := started.Load(); got > 16 {
		t.Errorf("mapper invoked %d times after first error, want a handful", got)
	}
}

func TestJobSchedulerAcquireAfterFail(t *testing.T) {
	s := newJobScheduler()
	sem := make(chan struct{}, 1)
	if !s.acquire(sem) {
		t.Fatal("acquire on a healthy scheduler failed")
	}
	<-sem
	s.fail(fmt.Errorf("first"))
	s.fail(fmt.Errorf("second")) // first error wins
	if s.acquire(sem) {
		t.Error("acquire succeeded after failure")
	}
	if len(sem) != 0 {
		t.Error("slot leaked by post-failure acquire")
	}
	if got := s.firstErr(); got == nil || got.Error() != "first" {
		t.Errorf("firstErr = %v, want first", got)
	}
}

// overlapJob is a wordcount with a small io.sort.factor, so multi-wave runs
// merge with more inputs than the fan-in on both sides.
func overlapJob(text string, maps, reduces int) (*mapreduce.Job, *mapreduce.MemoryOutput) {
	job, out := wordCountJob(text, maps, reduces, false)
	job.Conf.SetInt(mapreduce.ConfIOSortFactor, 2)
	return job, out
}

// TestByteIdenticalAcrossSlowstart is the core acceptance invariant: the
// overlapped schedule must be invisible in the output bytes at every
// slowstart setting.
func TestByteIdenticalAcrossSlowstart(t *testing.T) {
	text, _ := corpus()
	barrier, barrierOut := overlapJob(text, 8, 3)
	if _, err := Run(slowstart(barrier, 1.0), nil); err != nil {
		t.Fatal(err)
	}
	want := renderOutput(barrierOut, 3)

	for _, slow := range []float64{0.05, 0.25, 0.5} {
		job, out := overlapJob(text, 8, 3)
		res, err := Run(slowstart(job, slow), &Options{MapParallelism: 2, ReduceParallelism: 2})
		if err != nil {
			t.Fatalf("slowstart=%v: %v", slow, err)
		}
		if got := renderOutput(out, 3); got != want {
			t.Errorf("slowstart=%v output differs from the barrier path", slow)
		}
		if got := res.Counters.Task(mapreduce.CtrShuffledMaps); got != 8*3 {
			t.Errorf("slowstart=%v shuffled maps = %d, want 24", slow, got)
		}
	}
}

// TestByteIdenticalUnderFaults: overlapped schedule + fault injection must
// still converge to the barrier path's bytes — a failed map attempt is never
// announced, so reducers only ever fetch the attempt that committed, and a
// failed reduce attempt re-fetches everything.
func TestByteIdenticalUnderFaults(t *testing.T) {
	text, _ := corpus()
	barrier, barrierOut := overlapJob(text, 8, 3)
	if _, err := Run(slowstart(barrier, 1.0), nil); err != nil {
		t.Fatal(err)
	}
	want := renderOutput(barrierOut, 3)

	plan := &faultinject.Plan{
		Seed:              11,
		MapFailureRate:    0.25,
		ReduceFailureRate: 0.10,
		ShuffleDropRate:   0.10,
		SpillErrorRate:    0.05,
	}
	job, out := overlapJob(text, 8, 3)
	res, err := Run(slowstart(job, 0.05), &Options{Faults: plan, FetchBackoff: fastBackoff(), MapParallelism: 2, ReduceParallelism: 2})
	if err != nil {
		t.Fatalf("overlapped faulty run did not recover: %v", err)
	}
	if got := renderOutput(out, 3); got != want {
		t.Error("overlapped faulty output differs from the barrier path")
	}
	c := res.Counters
	if c.Fault(mapreduce.CtrMapAttemptsFailed)+c.Fault(mapreduce.CtrShuffleFetchFailures) == 0 {
		t.Fatal("fault plan injected nothing — the scenario is vacuous")
	}
}

// TestEachPartitionServedOnce pins the copy phase's traffic: when map
// attempts fail and retry but no fetch or reduce attempt does, every (map,
// reduce) partition crosses the wire exactly once — only the committed
// attempt is announced, so nothing is fetched twice — on either serving
// store, with or without the bounded merge pool.
func TestEachPartitionServedOnce(t *testing.T) {
	const maps, reduces = 8, 3
	text, _ := corpus()
	for _, disk := range []bool{false, true} {
		for _, budget := range []int{0, 1} {
			job, _ := overlapJob(text, maps, reduces)
			slowstart(job, 0.05).Conf.SetInt(mapreduce.ConfShuffleInputBufBytes, budget)
			plan := &faultinject.Plan{Seed: 11, MapFailureRate: 0.25, SpillErrorRate: 0.10, MaxTaskAttempts: 8}
			ResetShuffleServeStats()
			res, err := Run(job, &Options{Faults: plan, DiskShuffle: disk, MapParallelism: 2, ReduceParallelism: 2})
			if err != nil {
				t.Fatalf("disk=%v budget=%d: %v", disk, budget, err)
			}
			c := res.Counters
			if c.Fault(mapreduce.CtrMapAttemptsFailed) == 0 || c.Fault(mapreduce.CtrSpillTransientErrors) == 0 {
				t.Fatalf("disk=%v budget=%d: plan injected no map failure or no spill error — the scenario is vacuous", disk, budget)
			}
			if budget > 0 && res.ReduceMerge.DiskRuns == 0 {
				t.Errorf("disk=%v budget=%d: bounded pool spilled nothing", disk, budget)
			}
			if got := ShuffleServeStats().Responses; got != maps*reduces {
				t.Errorf("disk=%v budget=%d: server answered %d fetches, want %d", disk, budget, got, maps*reduces)
			}
			if got := c.Task(mapreduce.CtrShuffledMaps); got != maps*reduces {
				t.Errorf("disk=%v budget=%d: SHUFFLED_MAPS = %d, want %d", disk, budget, got, maps*reduces)
			}
		}
	}
}

// TestOverlapWindowMeasured: on a multi-wave job (maps > parallelism) with an
// early slow-start, reducers must run concurrently with later map waves and
// the phase split must record it.
func TestOverlapWindowMeasured(t *testing.T) {
	text, want := corpus()
	job, out := wordCountJob(text, 4, 2, false)
	slow := job.Mapper
	job.Mapper = func() mapreduce.Mapper {
		m := slow()
		return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, rep mapreduce.Reporter) error {
			time.Sleep(200 * time.Microsecond)
			return m.Map(k, v, o, rep)
		})
	}
	res, err := Run(slowstart(job, 0.25), &Options{MapParallelism: 1, ReduceParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, out, 2)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if res.OverlapWindow <= 0 {
		t.Errorf("OverlapWindow = %v, want > 0: reducers did not overlap the map waves", res.OverlapWindow)
	}
	if res.MapPhase <= 0 || res.ReduceTail < 0 {
		t.Errorf("phase split MapPhase=%v ReduceTail=%v", res.MapPhase, res.ReduceTail)
	}
	if res.MapPhase > res.Elapsed {
		t.Errorf("MapPhase %v exceeds Elapsed %v", res.MapPhase, res.Elapsed)
	}
}

// registerWordSegment registers a single-record segment for (mapIdx,
// partition 0) and returns the payload bytes it serves.
func registerWordSegment(t *testing.T, s *shuffleServer, mapIdx int, key, val string) *kvbuf.Segment {
	t.Helper()
	w := kvbuf.NewWriter(64)
	w.Append([]byte(key), []byte(val))
	seg := w.Close()
	if err := s.Register(mapIdx, 0, seg); err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestUnboundedCopyPhaseReturnsEveryMapInOrder pins what the final merge is
// handed when no memory budget is set: exactly one part per map, in ascending
// map order — nothing collapsed, nothing reordered — whatever order the two
// copiers' fetches landed in.
func TestUnboundedCopyPhaseReturnsEveryMapInOrder(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const maps = 6
	board := newCompletionBoard(maps)
	for m := 0; m < maps; m++ {
		registerWordSegment(t, s, m, fmt.Sprintf("key-%d", m), "ok")
		board.Announce(m, 0)
	}
	tr := copyRunner("Text", maps, 2, func(tr *TaskRunner) { tr.factor = 2 })
	res, err := newStreamShuffle(tr, s.Addr(), 0, board, &mergeTimings{}).run(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.cleanup()

	if res.inputs != nil {
		t.Fatal("unbounded copy phase produced disk-run inputs")
	}
	if len(res.parts) != maps {
		t.Fatalf("copy phase returned %d parts for %d maps", len(res.parts), maps)
	}
	for m, part := range res.parts {
		if !res.fetched[m] {
			t.Errorf("map %d not marked fetched", m)
		}
		rd := part.NewReader()
		k, _, ok, err := rd.Next()
		if err != nil || !ok || string(k) != fmt.Sprintf("key-%d", m) {
			t.Errorf("part %d holds key %q (ok=%v err=%v), want key-%d", m, k, ok, err, m)
		}
	}
}

// TestStreamShuffleAborts: a reducer waiting on announcements that will
// never come must unblock when the job-level done channel closes.
func TestStreamShuffleAborts(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 4
	registerWordSegment(t, s, 0, "k", "v")
	board := newCompletionBoard(maps)
	board.Announce(0, 0)
	ss := newStreamShuffle(copyRunner("Text", maps, 2, nil), s.Addr(), 0, board, &mergeTimings{})

	done := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		_, err := ss.run(done)
		result <- err
	}()
	select {
	case err := <-result:
		t.Fatalf("run returned %v before cancellation with 3 maps unannounced", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	select {
	case err := <-result:
		if err != errShuffleAborted {
			t.Errorf("err = %v, want errShuffleAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shuffle did not abort after done closed")
	}
}
