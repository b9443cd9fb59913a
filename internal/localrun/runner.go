package localrun

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// Options tunes the local executor.
type Options struct {
	// MapParallelism / ReduceParallelism bound concurrent tasks
	// (default: GOMAXPROCS).
	MapParallelism    int
	ReduceParallelism int

	// ParallelCopies bounds each reduce task's concurrent shuffle fetch
	// connections, Hadoop's mapreduce.reduce.shuffle.parallelcopies. Zero
	// defers to the job Conf's value (default 5).
	ParallelCopies int

	// Slowstart is the completed-map fraction before reduce tasks launch,
	// Hadoop's mapreduce.job.reduce.slowstart.completedmaps. Reducers then
	// fetch each map's output as it commits instead of after a global
	// barrier, hiding copy (and background merge) time under map compute.
	// Zero defers to the job Conf's value (default 0.05); 1.0 restores the
	// strict barrier schedule.
	Slowstart float64

	// ShuffleMemBudget bounds the bytes of fetched map output a reduce task
	// holds in memory at once — Hadoop's MergeManager budget (the absolute
	// form of mapreduce.reduce.shuffle.input.buffer.percent). When the pool
	// crosses the merge threshold (merge percent x budget), or a copier is
	// blocked waiting for room, a background merger compacts in-memory
	// segments into sorted on-disk IFile runs while the copiers keep
	// fetching, and the final pass streams the merge over the mixed
	// memory+disk run set — so a reduce whose shuffle volume exceeds RAM
	// completes, with output bytes identical to the unbounded merge. Zero
	// defers to the job Conf's mapreduce.reduce.shuffle.input.buffer.bytes
	// (default 0 = unbounded, the all-in-memory fast path); negative forces
	// unbounded.
	ShuffleMemBudget int64

	// MergeFactor bounds the fan-in of reduce-side merges (in-memory spill
	// merges, intermediate disk passes, and the final merge), overriding
	// the job Conf's io.sort.factor for the reduce side. Zero defers to the
	// conf (default 10).
	MergeFactor int

	// DiskShuffle stores committed map outputs in a spill file instead of
	// retained heap buffers, served zero-copy via sendfile where the
	// platform allows — the real-Hadoop shape (mapred.local.dir +
	// sendfile-backed shuffle servlet). Off by default: on loopback with
	// outputs already in memory, writev from the retained buffer is the
	// faster zero-copy path; DiskShuffle is for memory-bounded serving.
	DiskShuffle bool

	// Combiner supplies a map-side combiner when the job itself sets none,
	// Hadoop's job.setCombinerClass: an associative reduce run over sorted
	// runs at spill time and again at the final per-map merge, cutting
	// shuffle bytes at the source. The job's own Combiner wins when both
	// are set.
	Combiner func() mapreduce.Reducer

	// Faults enables seeded, deterministic fault injection (nil: nothing
	// injected). The recovery machinery — bounded task re-execution and
	// shuffle-fetch retry with backoff — is the same code that guards
	// against organic failures.
	Faults *faultinject.Plan

	// FetchBackoff tunes the shuffle-fetch retry schedule; zero fields
	// take the faultinject defaults (4 attempts, 2ms base, 2x growth,
	// ±20% jitter).
	FetchBackoff faultinject.Backoff

	// MaxTaskAttempts bounds map/reduce task execution. Zero picks 1 for
	// clean runs (a deterministic user-code error should surface, not
	// re-execute) and Faults.TaskAttempts() when fault injection is on.
	MaxTaskAttempts int
}

func (o *Options) taskAttempts() int {
	if o.MaxTaskAttempts > 0 {
		return o.MaxTaskAttempts
	}
	if o.Faults.Enabled() {
		return o.Faults.TaskAttempts()
	}
	return 1
}

// Result summarizes a completed job.
type Result struct {
	Counters   *mapreduce.Counters
	NumMaps    int
	NumReduces int
	Elapsed    time.Duration

	// PerReduceRecords is each reduce task's input record count — the
	// realized intermediate-data distribution (what the paper's partition
	// patterns shape).
	PerReduceRecords []int64

	// Phase split of the overlapped schedule (zero for map-only jobs):
	// MapPhase spans job start to the last map commit, OverlapWindow is how
	// long map and reduce attempts ran concurrently within it, and
	// ReduceTail is the exposed reduce time after the last map commit. The
	// overlap win shows up as OverlapWindow growing and ReduceTail
	// shrinking while output bytes stay identical.
	MapPhase      time.Duration
	OverlapWindow time.Duration
	ReduceTail    time.Duration

	// ReduceMerge breaks down the reduce-side merge pipeline's work across
	// winning reduce attempts: fetch-admission waits, in-memory merges,
	// disk passes, and the final merge+reduce pass.
	ReduceMerge ReduceMergeStats

	// MapSpill breaks down the map-side collect/spill pipeline across
	// winning map attempts: collector stalls, background seal work,
	// premerges, drain waits, and the final per-map merge.
	MapSpill MapSpillStats
}

// Run executes the job to completion and returns its merged counters.
func Run(job *mapreduce.Job, opts *Options) (*Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if opts.MapParallelism <= 0 {
		opts.MapParallelism = runtime.GOMAXPROCS(0)
	}
	if opts.ReduceParallelism <= 0 {
		opts.ReduceParallelism = runtime.GOMAXPROCS(0)
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if opts.Combiner != nil && job.Combiner == nil {
		j := *job
		j.Combiner = opts.Combiner
		job = &j
	}
	conf := job.Conf
	numReduces := conf.NumReduces()

	splits, err := job.Input.Splits(conf)
	if err != nil {
		return nil, fmt.Errorf("localrun: computing splits: %w", err)
	}
	if len(splits) == 0 {
		return nil, &mapreduce.JobError{Msg: "localrun: input produced no splits"}
	}

	total := mapreduce.NewCounters()

	if numReduces == 0 {
		// Map-only job: mapper output goes straight to the output format.
		if job.Output == nil {
			return nil, &mapreduce.JobError{Msg: "localrun: map-only job needs an Output"}
		}
		taskCtrs := make([]*mapreduce.Counters, len(splits))
		err := parallelFor(len(splits), opts.MapParallelism, func(i int) error {
			c, err := runMapOnly(job, i, splits[i])
			taskCtrs[i] = c
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, c := range taskCtrs {
			total.Merge(c)
		}
		return &Result{Counters: total, NumMaps: len(splits), Elapsed: time.Since(start)}, nil
	}

	cmp, err := writable.Comparator(job.MapOutputKeyType)
	if err != nil {
		return nil, err
	}

	server, err := newShuffleServer(opts.DiskShuffle)
	if err != nil {
		return nil, err
	}
	defer server.Close()

	jobID := mapreduce.JobID{Seq: 1}
	attempts := opts.taskAttempts()

	slowstart := opts.Slowstart
	if slowstart <= 0 {
		slowstart = conf.SlowstartMaps()
	}
	target := slowstartTarget(slowstart, len(splits))

	// One unified scheduler replaces the old map-barrier-reduce phases: map
	// and reduce attempts share a pool under separate slot caps, reducers
	// launching once the slow-start threshold of maps has committed to the
	// completion board and streaming the rest of their input as it appears.
	board := newCompletionBoard(len(splits))
	sched := newJobScheduler()
	mapSlots := make(chan struct{}, opts.MapParallelism)
	reduceSlots := make(chan struct{}, opts.ReduceParallelism)
	mapCtrs := make([]*mapreduce.Counters, len(splits))
	redCtrs := make([]*mapreduce.Counters, numReduces)
	jobTM := &mergeTimings{} // reduce-side merge pipeline totals
	jobST := &spillTimings{} // map-side collect/spill pipeline totals
	var firstReduceStart time.Time

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // map dispatch
		defer wg.Done()
		for i := range splits {
			if !sched.acquire(mapSlots) {
				return
			}
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-mapSlots }()
				c, err := runMapWithRetry(job, jobID, i, splits[i], cmp, numReduces, server, board, opts.Faults, attempts, jobST)
				mapCtrs[i] = c
				if err != nil {
					sched.fail(err)
				}
			}()
		}
	}()
	go func() { // reduce dispatch, gated on the slow-start threshold
		defer wg.Done()
		if !board.waitCommitted(target, sched.done) {
			return
		}
		firstReduceStart = time.Now()
		for r := 0; r < numReduces; r++ {
			if !sched.acquire(reduceSlots) {
				return
			}
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-reduceSlots }()
				c, err := runReduceWithRetry(job, jobID, r, len(splits), server.Addr(), cmp, opts, board, sched.done, attempts, jobTM)
				redCtrs[r] = c
				if err != nil {
					sched.fail(err)
				}
			}()
		}
	}()
	wg.Wait()
	if err := sched.firstErr(); err != nil {
		return nil, err
	}

	for _, c := range mapCtrs {
		total.Merge(c)
	}
	perReduce := make([]int64, numReduces)
	for r, c := range redCtrs {
		perReduce[r] = c.Task(mapreduce.CtrReduceInputRecords)
		total.Merge(c)
	}

	end := time.Now()
	lastCommit := board.LastCommit()
	res := &Result{
		Counters:         total,
		NumMaps:          len(splits),
		NumReduces:       numReduces,
		Elapsed:          end.Sub(start),
		PerReduceRecords: perReduce,
		MapPhase:         lastCommit.Sub(start),
		ReduceTail:       end.Sub(lastCommit),
		ReduceMerge:      jobTM.stats(),
		MapSpill:         jobST.stats(),
	}
	if !firstReduceStart.IsZero() && lastCommit.After(firstReduceStart) {
		res.OverlapWindow = lastCommit.Sub(firstReduceStart)
	}
	return res, nil
}

// jobScheduler is the shared control state of the unified task pool: the
// first recorded error wins and closes done, after which no further task is
// scheduled (fast-fail) and blocked waits abort.
type jobScheduler struct {
	mu   sync.Mutex
	err  error
	done chan struct{}
}

func newJobScheduler() *jobScheduler {
	return &jobScheduler{done: make(chan struct{})}
}

func (s *jobScheduler) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && err != nil {
		s.err = err
		close(s.done)
	}
}

func (s *jobScheduler) firstErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// acquire takes a slot from sem unless the job has failed; it re-checks
// after acquiring so a slot freed by a failing task is not used to launch
// more work.
func (s *jobScheduler) acquire(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
	case <-s.done:
		return false
	}
	select {
	case <-s.done:
		<-sem
		return false
	default:
		return true
	}
}

// parallelFor runs fn(0..n-1) on up to `workers` goroutines and returns the
// first error. Once an error is recorded no further index is dispatched —
// in-flight calls finish, the rest never start.
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		nextCh = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range nextCh {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := first != nil
		mu.Unlock()
		if failed {
			break
		}
		nextCh <- i
	}
	close(nextCh)
	wg.Wait()
	return first
}

// runMapWithRetry executes map task idx, re-executing failed attempts with
// fresh attempt IDs up to the bound (Hadoop's mapreduce.map.maxattempts).
// Each attempt gets fresh task counters — only the winning attempt's work
// counts, as in Hadoop — while fault counters accumulate across attempts so
// the job report shows what the executor survived. The winning attempt is
// published to the completion board so waiting reducers fetch it
// immediately; a commit after earlier failed attempts re-announces, bumping
// the board version.
func runMapWithRetry(job *mapreduce.Job, jobID mapreduce.JobID, idx int, split mapreduce.InputSplit, cmp writable.RawComparator, numReduces int, server *shuffleServer, board *completionBoard, plan *faultinject.Plan, attempts int, jobST *spillTimings) (*mapreduce.Counters, error) {
	faultCtrs := mapreduce.NewCounters()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		aid := mapreduce.MapAttempt(jobID, idx, attempt)
		tm := &spillTimings{}
		c, err := runMapTask(job, aid, split, cmp, numReduces, server, plan, faultCtrs, tm)
		if err == nil {
			if board != nil {
				board.Announce(idx, attempt)
			}
			c.Merge(faultCtrs)
			if jobST != nil {
				// Only the winning attempt's pipeline work counts, matching
				// the counter semantics above.
				jobST.absorb(tm)
			}
			return c, nil
		}
		lastErr = err
		faultCtrs.IncrFault(mapreduce.CtrMapAttemptsFailed, 1)
	}
	return faultCtrs, fmt.Errorf("localrun: map %d failed after %d attempts: %w", idx, attempts, lastErr)
}

// runReduceWithRetry is runMapWithRetry's reduce-side twin. done aborts
// attempts (and the wait for map announcements inside them) once the job
// has failed elsewhere.
func runReduceWithRetry(job *mapreduce.Job, jobID mapreduce.JobID, r, numMaps int, serverAddr string, cmp writable.RawComparator, opts *Options, board *completionBoard, done <-chan struct{}, attempts int, jobTM *mergeTimings) (*mapreduce.Counters, error) {
	bo := opts.FetchBackoff
	if bo.Attempts == 0 && opts.Faults != nil {
		bo.Attempts = opts.Faults.FetchAttempts()
	}
	copies := opts.ParallelCopies
	if copies <= 0 {
		copies = job.Conf.ParallelCopies()
	}
	tun, err := reduceTuning(job, opts)
	if err != nil {
		return mapreduce.NewCounters(), err
	}
	faultCtrs := mapreduce.NewCounters()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		aid := mapreduce.ReduceAttempt(jobID, r, attempt)
		c, err := runReduceTask(job, aid, numMaps, serverAddr, cmp, opts.Faults, bo, copies, tun, faultCtrs, board, done, jobTM)
		if err == nil {
			c.Merge(faultCtrs)
			return c, nil
		}
		lastErr = err
		faultCtrs.IncrFault(mapreduce.CtrReduceAttemptsFailed, 1)
		select {
		case <-done:
			// The job is failing elsewhere; re-running this attempt would
			// only wait on announcements that will never come.
			return faultCtrs, fmt.Errorf("localrun: reduce %d: %w", r, lastErr)
		default:
		}
	}
	return faultCtrs, fmt.Errorf("localrun: reduce %d failed after %d attempts: %w", r, attempts, lastErr)
}

// reduceTuning resolves the reduce-side merge pipeline's knobs — fan-in,
// memory budget, spill threshold, and the disk-run codec — from the options
// and job conf. It is shared by every reduce attempt of the job.
func reduceTuning(job *mapreduce.Job, opts *Options) (shuffleTuning, error) {
	tun := shuffleTuning{factor: opts.MergeFactor, budget: opts.ShuffleMemBudget}
	if tun.factor <= 0 {
		tun.factor = job.Conf.IOSortFactor()
	}
	if tun.budget == 0 {
		tun.budget = job.Conf.ShuffleMemoryBytes()
	}
	if tun.budget <= 0 {
		tun.budget = 0
		return tun, nil
	}
	tun.threshold = int64(float64(tun.budget) * job.Conf.ShuffleMergePercent())
	if job.Conf.GetBool(mapreduce.ConfCompressMapOut, false) {
		codec, ok := kvbuf.CodecByName(job.Conf.CompressCodec())
		if !ok {
			return tun, fmt.Errorf("localrun: unknown map-output codec %q (have %v)", job.Conf.CompressCodec(), kvbuf.CodecNames())
		}
		tun.codec = codec
	}
	return tun, nil
}

// mapCollector routes mapper output into the sort buffer, spilling as the
// buffer fills. With a pipe the full buffer is handed to the background
// spiller and collection continues into a fresh ring buffer; without one
// (mapreduce.map.spill.overlap=false) the spill runs inline, stalling the
// collector for its whole duration. Spill boundaries are identical either
// way: every buffer has the full io.sort.mb capacity and the same ShouldSpill
// trigger decides when to seal.
type mapCollector struct {
	job        *mapreduce.Job
	part       mapreduce.Partitioner
	buf        *kvbuf.SortBuffer
	numReduces int
	spillPct   float64
	ctrs       *mapreduce.Counters
	spills     [][]*kvbuf.Segment
	codec      kvbuf.Codec // non-nil: spill segments are stored compressed

	// Per-record tallies stay in plain integers; runMapTask folds them into
	// ctrs once per attempt.
	outRecords, outBytes int64

	pipe *spillPipeline // non-nil: background spill overlap
	tm   *spillTimings  // this attempt's pipeline breakdown

	// Fault plumbing: aid names the running attempt, plan injects spill
	// errors, faultCtrs outlives failed attempts.
	aid       mapreduce.TaskAttemptID
	plan      *faultinject.Plan
	faultCtrs *mapreduce.Counters
	spillSeq  int
}

func (mc *mapCollector) Collect(key, value writable.Writable) error {
	p := mc.part.Partition(key, value, mc.numReduces)
	if p < 0 || p >= mc.numReduces {
		return fmt.Errorf("localrun: partitioner returned %d for %d reduces", p, mc.numReduces)
	}
	n, ok, err := mc.emit(p, key, value)
	if err != nil {
		return err
	}
	if !ok {
		// The record overran io.sort.mb: nothing of it was buffered. Spill,
		// then serialise it again into the emptied (or the ring's next) buffer.
		if err := mc.spill(); err != nil {
			return err
		}
		if n, ok, err = mc.emit(p, key, value); err != nil || !ok {
			return fmt.Errorf("localrun: record does not fit in empty sort buffer (err=%v)", err)
		}
	}
	mc.outRecords++
	mc.outBytes += int64(n)
	if mc.buf.ShouldSpill(mc.spillPct) {
		return mc.spill()
	}
	return nil
}

// emit serialises one record straight into the sort buffer's slab and
// commits it to partition p, returning its serialised size; ok=false when
// the buffer must spill first.
func (mc *mapCollector) emit(p int, key, value writable.Writable) (n int, ok bool, err error) {
	out := mc.buf.Reserve()
	key.Write(out)
	kl := out.Len()
	value.Write(out)
	ok, err = mc.buf.Commit(p, kl)
	return out.Len(), ok, err
}

func (mc *mapCollector) spill() error {
	records := mc.buf.Records()
	if records == 0 {
		return nil
	}
	seq := mc.spillSeq
	mc.spillSeq++
	if mc.plan != nil && mc.plan.SpillError(mc.aid.Task.Index, mc.aid.Attempt, seq) {
		// A transient I/O error in the spill path kills the attempt; the
		// re-executed attempt rolls fresh spill decisions. The check fires at
		// seal time in both modes, so fault schedules are mode-independent.
		mc.faultCtrs.IncrFault(mapreduce.CtrSpillTransientErrors, 1)
		return faultinject.Errorf("localrun: %s spill %d: transient write error", mc.aid, seq)
	}
	mc.tm.spills.Add(1)
	mc.ctrs.IncrTask(mapreduce.CtrSpilledRecords, int64(records))

	if mc.pipe != nil {
		// Background mode: surface any earlier spiller error, hand the full
		// buffer over, and keep collecting into a fresh ring buffer. The only
		// stall is Take blocking when every buffer is sealed and unspilled.
		if err := mc.pipe.firstErr(); err != nil {
			return err
		}
		mc.pipe.jobs <- mc.buf
		t0 := time.Now()
		buf, blocked := mc.pipe.ring.Take()
		if blocked {
			mc.tm.addCollectStall(time.Since(t0))
		}
		mc.buf = buf
		return nil
	}

	// Synchronous mode: the whole seal path runs inline on the mapper
	// goroutine, so the spill's duration is both work and stall.
	t0 := time.Now()
	segs, _ := mc.buf.Spill()
	err := sealSegments(mc.job, segs, mc.codec, mc.ctrs)
	d := time.Since(t0)
	mc.tm.addSpillWork(d)
	mc.tm.addCollectStall(d)
	if err != nil {
		recycleSegs(segs)
		return err
	}
	mc.spills = append(mc.spills, segs)
	return nil
}

func runMapTask(job *mapreduce.Job, aid mapreduce.TaskAttemptID, split mapreduce.InputSplit, cmp writable.RawComparator, numReduces int, server *shuffleServer, plan *faultinject.Plan, faultCtrs *mapreduce.Counters, tm *spillTimings) (*mapreduce.Counters, error) {
	idx := aid.Task.Index
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}
	reader, err := job.Input.Reader(split, job.Conf)
	if err != nil {
		return ctrs, fmt.Errorf("localrun: map %d reader: %w", idx, err)
	}
	defer reader.Close()

	part := job.Partitioner
	if job.PartitionerForTask != nil {
		// Seeded per task, not per attempt: a re-executed attempt emits the
		// same records, so recovery cannot change the job's output.
		part = func() mapreduce.Partitioner { return job.PartitionerForTask(idx) }
	}
	codec, ok := kvbuf.CodecByName(job.Conf.CompressCodec())
	if !ok {
		return ctrs, fmt.Errorf("localrun: unknown map-output codec %q (have %v)", job.Conf.CompressCodec(), kvbuf.CodecNames())
	}
	capacity := job.Conf.IOSortMB() << 20
	factor := job.Conf.IOSortFactor()
	pf, hasPF := writable.PrefixExtractor(job.MapOutputKeyType)

	// Overlap mode (the default) spills on a background spiller fed from a
	// buffer ring; sync mode keeps the single-buffer spill-inline path.
	var pipe *spillPipeline
	var buf *kvbuf.SortBuffer
	if job.Conf.SpillOverlap() {
		pipe = newSpillPipeline(job, cmp, codec, factor, capacity, numReduces, job.Conf.SpillInflight(), tm)
		if hasPF {
			pipe.ring.SetPrefixFunc(pf)
		}
		buf, _ = pipe.ring.Take()
	} else {
		buf = kvbuf.NewSortBuffer(capacity, numReduces, cmp)
		if hasPF {
			buf.SetPrefixFunc(pf)
		}
	}
	mc := &mapCollector{
		job:        job,
		part:       part(),
		buf:        buf,
		numReduces: numReduces,
		spillPct:   job.Conf.SortSpillPercent(),
		ctrs:       ctrs,
		codec:      codec,
		aid:        aid,
		plan:       plan,
		faultCtrs:  faultCtrs,
		pipe:       pipe,
		tm:         tm,
	}
	drained := false
	var inRecords int64
	defer func() {
		if pipe != nil && !drained {
			pipe.abort()
		}
		if mc.buf != nil {
			mc.buf.Release()
		}
		// Deferred so a failed attempt still reports what it did.
		addTask(ctrs, mapreduce.CtrMapInputRecords, inRecords)
		addTask(ctrs, mapreduce.CtrMapOutputRecords, mc.outRecords)
		addTask(ctrs, mapreduce.CtrMapOutputBytes, mc.outBytes)
	}()
	mapper := job.Mapper()
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return ctrs, fmt.Errorf("localrun: map %d input: %w", idx, err)
		}
		if !ok {
			break
		}
		inRecords++
		if err := mapper.Map(k, v, mc, rep); err != nil {
			return ctrs, fmt.Errorf("localrun: map %d: %w", idx, err)
		}
	}
	if err := mapper.Close(mc, rep); err != nil {
		return ctrs, fmt.Errorf("localrun: map %d close: %w", idx, err)
	}
	chargeInputBytes(ctrs, reader)
	if err := mc.spill(); err != nil {
		return ctrs, err
	}

	// Collect the attempt's runs: drain the background spiller (overlapping
	// the tail of collection was its whole point — only the last spills wait
	// here), or adopt the synchronous spill list as raw runs.
	var runs []mapRun
	if pipe != nil {
		drained = true
		runs, err = pipe.drain(ctrs)
		if err != nil {
			return ctrs, fmt.Errorf("localrun: map %d spill: %w", idx, err)
		}
	} else {
		runs = make([]mapRun, 0, len(mc.spills))
		for _, segs := range mc.spills {
			runs = append(runs, mapRun{segs: segs})
		}
	}
	if len(runs) == 0 {
		// No output at all: publish empty segments so reducers find them.
		empty := make([]*kvbuf.Segment, numReduces)
		for p := range empty {
			e := kvbuf.NewWriter(8).Close()
			if codec != nil {
				z := kvbuf.CompressSegmentWith(e, codec)
				e.Recycle()
				e = z
			}
			empty[p] = e
		}
		runs = append(runs, mapRun{segs: empty})
	}

	// An injected attempt failure strikes during shuffle registration: the
	// attempt dies with only part of its partitions published, and the
	// re-executed attempt must overwrite them (Hadoop's re-run of a failed
	// map re-serves its output the same way).
	abortAt := -1
	if plan != nil && plan.FailMap(idx, aid.Attempt) {
		abortAt = numReduces / 2
	}

	// Merge runs per partition into the final map output (multi-pass with
	// io.sort.factor fan-in when a task spilled many times). Raw spill runs
	// are already combined/compressed per the job conf, so the single-spill
	// fast path registers them untouched; otherwise the merge decompresses
	// the raw runs (premerged blocks are kept uncompressed), merges,
	// re-combines (the combiner's second chance, as in Hadoop's merge-side
	// combine), and re-compresses the final output. Because blocks replace
	// contiguous run ranges and MergeAll's stable positional tie-breaking is
	// invariant to pass structure, the bytes match the synchronous flat merge.
	mergeStart := time.Now()
	single := len(runs) == 1 && !runs[0].merged
	for p := 0; p < numReduces; p++ {
		if p == abortAt {
			return ctrs, faultinject.Errorf("localrun: %s aborted during shuffle registration (%d/%d partitions published)", aid, p, numReduces)
		}
		var final *kvbuf.Segment
		if single {
			final = runs[0].segs[p]
		} else {
			parts := make([]*kvbuf.Segment, len(runs))
			for i, run := range runs {
				if run.merged || codec == nil {
					parts[i] = run.segs[p]
					continue
				}
				d, err := run.segs[p].Decompress()
				if err != nil {
					return ctrs, fmt.Errorf("localrun: map %d run %d: %w", idx, i, err)
				}
				parts[i] = d
			}
			merged, _, err := kvbuf.MergeAll(cmp, parts, factor, 0)
			if err != nil {
				return ctrs, fmt.Errorf("localrun: map %d final merge: %w", idx, err)
			}
			// The runs' bytes were copied into the merged segment; recycle
			// the decompression scratch and the run buffers for reuse.
			for i, run := range runs {
				if !run.merged && codec != nil {
					parts[i].Recycle()
				}
				run.segs[p].Recycle()
			}
			final = merged
			if job.Combiner != nil && final.Records() > 0 {
				combined, err := combineSegment(job, final, ctrs)
				if err != nil {
					return ctrs, fmt.Errorf("localrun: map %d merge combine: %w", idx, err)
				}
				final.Recycle()
				final = combined
			}
			if codec != nil {
				z := kvbuf.CompressSegmentWith(final, codec)
				final.Recycle()
				final = z
			}
		}
		if err := server.Register(idx, p, final); err != nil {
			return ctrs, fmt.Errorf("localrun: %s: %w", aid, err)
		}
	}
	tm.addFinalMerge(time.Since(mergeStart))
	return ctrs, nil
}

func runReduceTask(job *mapreduce.Job, aid mapreduce.TaskAttemptID, numMaps int, serverAddr string, cmp writable.RawComparator, plan *faultinject.Plan, bo faultinject.Backoff, copies int, tun shuffleTuning, faultCtrs *mapreduce.Counters, board *completionBoard, done <-chan struct{}, jobTM *mergeTimings) (*mapreduce.Counters, error) {
	r := aid.Task.Index
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}

	// Shuffle: stream this partition's segment from every map as it commits
	// to the completion board, over parallelcopies persistent pipelined
	// connections. Each fetch verifies the IFile checksum as it streams in
	// and retries transient failures with backoff. With an unbounded pool,
	// completed contiguous blocks merge in the background while later map
	// waves still run; with ShuffleMemBudget set, the bounded pool's
	// background spiller compacts in-memory segments to on-disk runs
	// instead.
	compressed := job.Conf.GetBool(mapreduce.ConfCompressMapOut, false)
	tm := &mergeTimings{} // this attempt's pipeline stats
	tun.tm = tm
	ss := newStreamShuffle(serverAddr, numMaps, r, copies, compressed, plan, bo, board, cmp, tun)
	sres, err := ss.run(done)
	if sres.cleanup != nil {
		// Once the reduce pass below is done with the merge inputs, return
		// every fetched buffer to the segment pool and delete any disk runs
		// (a failed attempt cleans up the same way; the retry re-fetches).
		defer sres.cleanup()
	}
	st := sres.st
	// Skip zero increments so clean runs don't grow an all-zero
	// FaultCounter group in their counter dump.
	if st.failures > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchFailures, st.failures)
	}
	if st.retries > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchRetries, st.retries)
	}
	if st.slow > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchesSlow, st.slow)
	}
	for m := 0; m < numMaps; m++ {
		if sres.fetched[m] {
			ctrs.IncrTask(mapreduce.CtrShuffledMaps, 1)
			ctrs.IncrTask(mapreduce.CtrReduceShuffleBytes, sres.wire[m])
		}
	}
	if err != nil {
		return ctrs, fmt.Errorf("localrun: reduce %d shuffle: %w", r, err)
	}

	if plan != nil && plan.FailReduce(r, aid.Attempt) {
		// The injected attempt failure strikes after the copy phase: all
		// shuffle work is wasted, the re-executed attempt re-fetches.
		return ctrs, faultinject.Errorf("localrun: %s aborted after shuffle", aid)
	}

	if sres.inputs != nil {
		// Bounded pool with spilled runs: stream the final merge over the
		// mixed memory+disk source set.
		err = reduceOverInputs(job, r, cmp, sres.inputs, numMaps, tun.factor, &ss.rdir, tm, ctrs, rep)
	} else {
		t0 := time.Now()
		err = reduceOverParts(job, r, cmp, sres.parts, numMaps, ctrs, rep)
		tm.addFinalMerge(time.Since(t0))
	}
	if err != nil {
		return ctrs, err
	}
	// Reduce-side disk runs count as spilled records, as in Hadoop. The
	// total is schedule-dependent under a general budget (which segments
	// share a spill depends on fetch arrival order), so identity checks
	// treat it separately from the deterministic task counters.
	if sr := tm.spilledRecs.Load(); sr > 0 {
		ctrs.IncrTask(mapreduce.CtrSpilledRecords, sr)
	}
	jobTM.absorb(tm)
	return ctrs, nil
}

func runMapOnly(job *mapreduce.Job, idx int, split mapreduce.InputSplit) (*mapreduce.Counters, error) {
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}
	reader, err := job.Input.Reader(split, job.Conf)
	if err != nil {
		return ctrs, err
	}
	defer reader.Close()
	writer, err := job.Output.Writer(job.Conf, idx)
	if err != nil {
		return ctrs, err
	}
	var inRecords, outRecords int64
	defer func() {
		addTask(ctrs, mapreduce.CtrMapInputRecords, inRecords)
		addTask(ctrs, mapreduce.CtrMapOutputRecords, outRecords)
	}()
	out := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		outRecords++
		return writer.Write(k, v)
	})
	mapper := job.Mapper()
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return ctrs, err
		}
		if !ok {
			break
		}
		inRecords++
		if err := mapper.Map(k, v, out, rep); err != nil {
			return ctrs, err
		}
	}
	if err := mapper.Close(out, rep); err != nil {
		return ctrs, err
	}
	chargeInputBytes(ctrs, reader)
	return ctrs, writer.Close()
}

// chargeInputBytes credits MAP_INPUT_BYTES when the reader can account for
// its consumption (file-backed splits; synthetic readers read nothing).
func chargeInputBytes(ctrs *mapreduce.Counters, reader mapreduce.RecordReader) {
	if ib, ok := reader.(interface{ InputBytes() int64 }); ok {
		ctrs.IncrTask(mapreduce.CtrMapInputBytes, ib.InputBytes())
	}
}
