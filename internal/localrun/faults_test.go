package localrun

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// fastBackoff keeps fault tests quick: real schedule shape, microsecond base.
func fastBackoff() faultinject.Backoff {
	return faultinject.Backoff{Base: 50 * time.Microsecond, Max: time.Millisecond}
}

// renderOutput flattens a MemoryOutput deterministically for comparison.
func renderOutput(out *mapreduce.MemoryOutput, reduces int) string {
	var b strings.Builder
	for r := 0; r < reduces; r++ {
		for _, p := range out.Pairs(r) {
			fmt.Fprintf(&b, "%d/%v=%v\n", r, p.Key, p.Value)
		}
	}
	return b.String()
}

// TestFaultScenarioByteIdenticalOutput is the acceptance scenario: 20% map
// attempt failures plus 10% shuffle-fetch drops (and a sprinkle of
// truncation, slow peers and spill errors) must leave the reduce output
// byte-identical to a clean run, with the recovery visible in counters.
func TestFaultScenarioByteIdenticalOutput(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()

	clean, cleanOut := wordCountJob(text, 6, 3, false)
	if _, err := Run(clean, nil); err != nil {
		t.Fatal(err)
	}
	want := renderOutput(cleanOut, 3)

	faulty, faultyOut := wordCountJob(text, 6, 3, false)
	plan := &faultinject.Plan{
		Seed:                3,
		MapFailureRate:      0.20,
		ReduceFailureRate:   0.10,
		ShuffleDropRate:     0.10,
		ShuffleTruncateRate: 0.05,
		ShuffleSlowRate:     0.05,
		ShuffleSlowness:     100 * time.Microsecond,
		SpillErrorRate:      0.05,
	}
	res, err := Run(faulty, &Options{Faults: plan, FetchBackoff: fastBackoff()})
	if err != nil {
		t.Fatalf("faulty run did not recover: %v", err)
	}
	if got := renderOutput(faultyOut, 3); got != want {
		t.Error("faulty run output differs from clean run")
	}

	c := res.Counters
	injectedTotal := c.Fault(mapreduce.CtrMapAttemptsFailed) +
		c.Fault(mapreduce.CtrReduceAttemptsFailed) +
		c.Fault(mapreduce.CtrShuffleFetchFailures) +
		c.Fault(mapreduce.CtrSpillTransientErrors)
	if injectedTotal == 0 {
		t.Fatal("fault scenario injected nothing — rates or seed plumbing broken")
	}
	if c.Fault(mapreduce.CtrShuffleFetchFailures) > 0 && c.Fault(mapreduce.CtrShuffleFetchRetries) == 0 {
		t.Error("fetch failures recorded but no retries: recovery path not exercised")
	}
	// The winning attempts' task counters must match a clean run's shape.
	if got := c.Task(mapreduce.CtrShuffledMaps); got != 6*3 {
		t.Errorf("shuffled maps = %d, want 18", got)
	}
	t.Logf("survived: map attempts failed=%d reduce attempts failed=%d fetch failures=%d retries=%d slow=%d spill errors=%d",
		c.Fault(mapreduce.CtrMapAttemptsFailed), c.Fault(mapreduce.CtrReduceAttemptsFailed),
		c.Fault(mapreduce.CtrShuffleFetchFailures), c.Fault(mapreduce.CtrShuffleFetchRetries),
		c.Fault(mapreduce.CtrShuffleFetchesSlow), c.Fault(mapreduce.CtrSpillTransientErrors))
}

func TestFaultyRunsAreDeterministic(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	run := func() (string, string) {
		job, out := wordCountJob(text, 4, 2, true)
		plan := &faultinject.Plan{Seed: 9, MapFailureRate: 0.3, ShuffleDropRate: 0.2, SpillErrorRate: 0.1}
		res, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
		if err != nil {
			t.Fatal(err)
		}
		return renderOutput(out, 2), res.Counters.String()
	}
	out1, ctr1 := run()
	out2, ctr2 := run()
	if out1 != out2 {
		t.Error("identical faulty runs produced different output")
	}
	if ctr1 != ctr2 {
		t.Errorf("identical faulty runs produced different counters:\n%s\nvs\n%s", ctr1, ctr2)
	}
}

func TestDeterministicFailureCountsRetried(t *testing.T) {
	leakcheck.Check(t, 0)
	// mrsim-style exact failure counts through the REAL executor: map 1
	// dies twice, reduce 0 dies once; the job still completes.
	text, want := corpus()
	job, out := wordCountJob(text, 3, 2, false)
	plan := &faultinject.Plan{
		MapFailures:    map[int]int{1: 2},
		ReduceFailures: map[int]int{0: 1},
	}
	res, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, out, 2)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if got := res.Counters.Fault(mapreduce.CtrMapAttemptsFailed); got != 2 {
		t.Errorf("map attempts failed = %d, want 2", got)
	}
	if got := res.Counters.Fault(mapreduce.CtrReduceAttemptsFailed); got != 1 {
		t.Errorf("reduce attempts failed = %d, want 1", got)
	}
}

// TestBreakdownCountsWinningAttemptsOnly: the breakdown of a job whose maps
// die after spilling and whose reduce dies after spilling to disk is the
// breakdown of its winning attempts, as its counters are. Map spills are
// deterministic, so they match the clean run's; reduce-side disk runs depend
// on fetch order, so the check is that the counter's excess over the clean
// run is exactly what the breakdown says the winning reduces spilled.
func TestBreakdownCountsWinningAttemptsOnly(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	build := func() *mapreduce.Job {
		job, _ := orderJob(text, 4, 2, false)
		spillHeavyConf(job.Conf)
		return job
	}
	clean, err := Run(build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	job := build()
	job.Conf.SetInt(mapreduce.ConfShuffleInputBufBytes, 1)
	plan := &faultinject.Plan{MapFailures: map[int]int{0: 2, 3: 1}, ReduceFailures: map[int]int{1: 1}}
	res, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff(), ParallelCopies: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Fault(mapreduce.CtrMapAttemptsFailed); got != 3 {
		t.Fatalf("map attempts failed = %d, want 3", got)
	}
	if got := res.Counters.Fault(mapreduce.CtrReduceAttemptsFailed); got != 1 {
		t.Fatalf("reduce attempts failed = %d, want 1", got)
	}
	got, want := res.MapSpill, clean.MapSpill
	if got.Spills != want.Spills || got.AsyncSpills != want.AsyncSpills || got.PremergedRuns != want.PremergedRuns {
		t.Errorf("map spills/async/premerged = %d/%d/%d, want the clean run's %d/%d/%d",
			got.Spills, got.AsyncSpills, got.PremergedRuns, want.Spills, want.AsyncSpills, want.PremergedRuns)
	}
	if res.ReduceMerge.SpilledRecords == 0 {
		t.Fatal("a 1-byte pool spilled nothing on the reduce side")
	}
	if got, want := res.Counters.Task(mapreduce.CtrSpilledRecords)-res.ReduceMerge.SpilledRecords, clean.Counters.Task(mapreduce.CtrSpilledRecords); got != want {
		t.Errorf("SPILLED_RECORDS minus the reduce-side breakdown = %d, want the clean run's %d", got, want)
	}
}

func TestExhaustedAttemptsFailTheJob(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	job, _ := wordCountJob(text, 2, 2, false)
	plan := &faultinject.Plan{
		MapFailures:     map[int]int{0: 10},
		MaxTaskAttempts: 3,
	}
	_, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
	if err == nil {
		t.Fatal("job with a permanently failing map reported success")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not describe exhausted attempts: %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error lost the injected-fault identity: %v", err)
	}
}

// TestExhaustedTruncationIsAnInjectedFailure: a fetch whose every attempt
// rolled an injected truncation is rejected by the checksum (or the codec's
// stream-end check), but it is the fault plan that failed the job — the error
// must say both, or mrcheck reports a seeded failure as an organic one. It
// is also a *FetchError naming the map and the peer whose retries ran out.
func TestExhaustedTruncationIsAnInjectedFailure(t *testing.T) {
	leakcheck.Check(t, 0)
	for _, compress := range []bool{false, true} {
		text, _ := corpus()
		job, _ := wordCountJob(text, 2, 2, false)
		job.Conf.SetBool(mapreduce.ConfCompressMapOut, compress)
		plan := &faultinject.Plan{Seed: 3, ShuffleTruncateRate: 1, MaxTaskAttempts: 2}
		_, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
		if err == nil {
			t.Fatalf("compress=%v: job whose every fetch is truncated reported success", compress)
		}
		if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, kvbuf.ErrCorruptSegment) {
			t.Errorf("compress=%v: error must carry both ErrInjected and ErrCorruptSegment: %v", compress, err)
		}
		var fe *FetchError
		if !errors.As(err, &fe) || fe.Map < 0 || fe.Map >= 2 || fe.Peer == "" {
			t.Errorf("compress=%v: error must be a *FetchError naming the map and the peer: %v", compress, err)
		}
	}
}

func TestPermanentlyDownShufflePeerFailsDescriptively(t *testing.T) {
	// A closed listener: every dial is refused. The fetch must exhaust its
	// bounded retries and return a descriptive error, not hang.
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	s.Close()

	done := make(chan error, 1)
	go func() {
		_, _, _, err := FetchMapOutput(addr, 0, 0, false, nil, faultinject.Backoff{Attempts: 3, Base: 50 * time.Microsecond})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch from a dead peer succeeded")
		}
		if !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "dial") {
			t.Errorf("error not descriptive: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch from a dead peer hung")
	}
}

func TestCompressedShuffleSurvivesFaults(t *testing.T) {
	leakcheck.Check(t, 0)
	text, want := corpus()
	job, out := wordCountJob(text, 3, 2, false)
	job.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
	plan := &faultinject.Plan{Seed: 5, ShuffleTruncateRate: 0.25, ShuffleDropRate: 0.1}
	res, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, out, 2)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if res.Counters.Fault(mapreduce.CtrShuffleFetchFailures) == 0 {
		t.Error("no fetch failures injected at a 35% combined fault rate over 6 fetches? seed plumbing broken")
	}
}

func TestRegisterAfterCloseReturnsError(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	seg := kvbuf.NewWriter(8).Close()
	if err := s.Register(0, 0, seg); err != nil {
		t.Fatalf("register on live server: %v", err)
	}
	s.Close()
	err = s.Register(1, 0, seg)
	if !errors.Is(err, ErrServerClosed) {
		t.Errorf("register after close = %v, want ErrServerClosed", err)
	}
	// The closed server's state must not have been mutated.
	table := s.store.(*memStore).segs
	if _, ok := table[segKey{1, 0}]; ok {
		t.Error("register after close mutated the segment table")
	}
	if _, ok := table[segKey{0, 0}]; !ok {
		t.Error("pre-close registration lost")
	}
}

func TestMissingSegmentFailsFastWithoutRetries(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	_, _, _, err = FetchMapOutput(s.Addr(), 7, 7, false, nil, faultinject.Backoff{Attempts: 4, Base: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("fetch of unregistered segment succeeded")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("error not descriptive: %v", err)
	}
	// Permanent: no 100ms backoff sleeps may have happened.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("missing segment was retried (%v elapsed), want permanent failure", d)
	}
}

// TestTruncatedPayloadRejectedByFetchDecoder: a truncated payload goes
// through the decoder every clean fetch uses, raw and compressed, and is
// rejected as corrupt and injected; the connection stays in sync, so the
// next response behind it reads clean.
func TestTruncatedPayloadRejectedByFetchDecoder(t *testing.T) {
	w := kvbuf.NewWriter(64)
	for i := 0; i < 50; i++ {
		w.Append([]byte(fmt.Sprintf("key-%02d", i)), []byte("value"))
	}
	seg := w.Close()
	for _, compressed := range []bool{false, true} {
		payload := seg.Bytes()
		if compressed {
			payload = kvbuf.CompressSegmentWith(seg, kvbuf.Deflate).Bytes()
		}
		var frames []byte
		for range 2 {
			frames = append(frames, 0)
			frames = binary.BigEndian.AppendUint64(frames, uint64(len(payload)))
			frames = append(frames, payload...)
			frames = seg.AppendMarksFrame(frames)
		}
		f := &segmentFetcher{reduce: 0, compressed: compressed, conn: &shuffleConn{br: bufio.NewReader(bytes.NewReader(frames))}}
		if _, _, err := f.receive(3, true); !errors.Is(err, kvbuf.ErrCorruptSegment) || !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("compressed=%v: truncated payload: err %v, want ErrCorruptSegment and ErrInjected", compressed, err)
		}
		got, wire, err := f.receive(3, false)
		if err != nil || !bytes.Equal(got.Bytes(), seg.Bytes()) || wire != int64(len(payload)) {
			t.Errorf("compressed=%v: the response behind the truncated one: err %v, wire %d of %d", compressed, err, wire, len(payload))
		}
	}
}

func TestSpillErrorsRetriedToCompletion(t *testing.T) {
	leakcheck.Check(t, 0)
	// Force multiple spills (1 MiB buffer, ~3 MiB of output) with a spill
	// error rate: attempts die in the kvbuf spill path and re-execute.
	var pairs []mapreduce.Pair
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i % 97)},
			Value: &writable.BytesWritable{Data: make([]byte, 1024)},
		})
	}
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "spill-faults",
		Conf: mapreduce.NewConf().
			SetInt(mapreduce.ConfNumMaps, 2).
			SetInt(mapreduce.ConfNumReduces, 2).
			SetInt(mapreduce.ConfIOSortMB, 1),
		Mapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
				return o.Collect(k, v)
			})
		},
		Reducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
				var n int64
				for {
					if _, ok := vs.Next(); !ok {
						break
					}
					n++
				}
				return o.Collect(&writable.LongWritable{Value: k.(*writable.LongWritable).Value}, &writable.LongWritable{Value: n})
			})
		},
		Input:              &mapreduce.SliceInput{Pairs: pairs},
		Output:             out,
		MapOutputKeyType:   "LongWritable",
		MapOutputValueType: "BytesWritable",
	}
	plan := &faultinject.Plan{Seed: 2, SpillErrorRate: 0.15}
	res, err := Run(job, &Options{Faults: plan, FetchBackoff: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Fault(mapreduce.CtrSpillTransientErrors) == 0 {
		t.Error("no spill errors injected at 15% across many spills")
	}
	var total int64
	for r := 0; r < 2; r++ {
		for _, p := range out.Pairs(r) {
			total += p.Value.(*writable.LongWritable).Value
		}
	}
	if total != 3000 {
		t.Errorf("reduced record total = %d, want 3000 (records lost or duplicated across retries)", total)
	}
}

func TestCleanRunRetriesToTheDefaultBound(t *testing.T) {
	leakcheck.Check(t, 0)
	// Without a fault plan a failing task re-executes as it does on dist and
	// in Hadoop, up to the default bound of 4, and the job then fails with
	// the exhaustion error naming the task and carrying the user error.
	calls := 0
	job, _ := wordCountJob("a b c\n", 1, 1, false)
	job.Mapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(_, _ writable.Writable, _ mapreduce.Collector, _ mapreduce.Reporter) error {
			calls++
			return fmt.Errorf("boom")
		})
	}
	_, err := Run(job, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("map error not propagated: %v", err)
	}
	var ee *ExhaustedError
	if !errors.As(err, &ee) || !errors.Is(err, ErrAttemptsExhausted) || ee.Culprit.Type != mapreduce.TaskMap || ee.Culprit.Index != 0 {
		t.Errorf("error does not charge map 0 with exhausted attempts: %v", err)
	}
	if calls != 4 {
		t.Errorf("mapper ran %d times on a clean run, want 4", calls)
	}
}

func TestFaultPlanRetriesOrganicErrors(t *testing.T) {
	leakcheck.Check(t, 0)
	// Organic (non-injected) failures re-execute like injected ones: a
	// mapper that fails twice then succeeds completes the job.
	var calls int
	job, out := wordCountJob("a b c\n", 1, 1, false)
	inner := job.Mapper
	job.Mapper = func() mapreduce.Mapper {
		m := inner()
		return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, rep mapreduce.Reporter) error {
			calls++
			if calls <= 2 {
				return fmt.Errorf("flaky mapper")
			}
			return m.Map(k, v, o, rep)
		})
	}
	res, err := Run(job, &Options{FetchBackoff: fastBackoff()})
	if err != nil {
		t.Fatalf("flaky mapper not recovered: %v", err)
	}
	if got := res.Counters.Fault(mapreduce.CtrMapAttemptsFailed); got != 2 {
		t.Errorf("map attempts failed = %d, want 2", got)
	}
	if n := len(out.Pairs(0)); n != 3 {
		t.Errorf("output records = %d, want 3", n)
	}
}

// TestMapOnlyAttemptsRetry: a map-only job's attempts re-execute like every
// other map's. Each map's first attempt fails mid-split, after writing part
// of its output; the retried attempts commit output byte-identical to a
// clean run and leave no temp part behind.
func TestMapOnlyAttemptsRetry(t *testing.T) {
	leakcheck.Check(t, 0)
	const maps, rows = 4, 40
	var pairs []mapreduce.Pair
	for i := 0; i < rows; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i)},
			Value: writable.NewText(fmt.Sprintf("row-%03d", i)),
		})
	}
	run := func(failFirst bool, opts *Options) (string, *Result, error) {
		dir := t.TempDir()
		var mu sync.Mutex
		failed := map[int64]bool{} // by the split's first key, which is its map index
		job := &mapreduce.Job{
			Name: "maponly-retry",
			Conf: mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, maps).SetInt(mapreduce.ConfNumReduces, 0),
			Mapper: func() mapreduce.Mapper {
				var first int64
				n := 0
				return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
					if n++; n == 1 {
						first = k.(*writable.LongWritable).Value
					}
					if failFirst && n == 3 {
						mu.Lock()
						again := failed[first]
						failed[first] = true
						mu.Unlock()
						if !again {
							return fmt.Errorf("first attempt of map %d fails", first)
						}
					}
					return o.Collect(k, v)
				})
			},
			Input:              &mapreduce.SliceInput{Pairs: pairs},
			Output:             inputformat.TextOutput{Dir: dir},
			MapOutputKeyType:   "LongWritable",
			MapOutputValueType: "Text",
		}
		res, err := Run(job, opts)
		return dir, res, err
	}

	cleanDir, _, err := run(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inputformat.DirDigest(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	dir, res, err := run(true, &Options{Faults: &faultinject.Plan{MaxTaskAttempts: 2}})
	if err != nil {
		t.Fatalf("map-only attempts not retried: %v", err)
	}
	if got, err := inputformat.DirDigest(dir); err != nil || got != want {
		t.Errorf("retried output digest %016x (err %v), clean run %016x", got, err, want)
	}
	if got := res.Counters.Fault(mapreduce.CtrMapAttemptsFailed); got != maps {
		t.Errorf("MAP_ATTEMPTS_FAILED = %d, want %d", got, maps)
	}
	if got := res.Counters.Task(mapreduce.CtrMapOutputRecords); got != rows {
		t.Errorf("MAP_OUTPUT_RECORDS = %d, want %d: only the winning attempts count", got, rows)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != maps {
		t.Errorf("%d entries in the output directory, want %d parts", len(ents), maps)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("retried job left temp part %s behind", e.Name())
		}
	}
}
