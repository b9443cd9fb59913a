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

// Options carries what a job Conf cannot say: how parallel this host runs the
// job, the fault plan and retry schedule of this run, and which store serves
// map output. Every Hadoop knob (sort buffer, merge fan-in, slow-start,
// shuffle memory budget, codec, combiner) has one source — job.Conf and
// job.Combiner — resolved once when the job's TaskRunner is built.
type Options struct {
	// MapParallelism / ReduceParallelism bound concurrent tasks
	// (default: GOMAXPROCS).
	MapParallelism    int
	ReduceParallelism int

	// ParallelCopies bounds each reduce task's concurrent shuffle fetch
	// connections on this host, overriding the job Conf's
	// mapreduce.reduce.shuffle.parallelcopies. Zero defers to the conf
	// (default 5).
	ParallelCopies int

	// DiskShuffle stores committed map outputs in a spill file instead of
	// retained heap buffers, served zero-copy via sendfile where the
	// platform allows — the real-Hadoop shape (mapred.local.dir +
	// sendfile-backed shuffle servlet). Off by default: on loopback with
	// outputs already in memory, writev from the retained buffer is the
	// faster zero-copy path; DiskShuffle is for memory-bounded serving.
	DiskShuffle bool

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

// TaskRunner is the job-scoped environment every task attempt of one job
// runs in, on both real engines: localrun.Run builds one per job, and so do
// the distrun coordinator (before it spawns a worker) and each worker for the
// job the coordinator hands it. Every value
// the executor reads from the job Conf is resolved and validated here, once,
// before any task starts; task bodies take the runner plus their per-attempt
// values and never read the conf for a knob (they hand job.Conf through to
// the input and output formats only).
type TaskRunner struct {
	job        *mapreduce.Job
	jobID      mapreduce.JobID
	splits     []mapreduce.InputSplit
	numReduces int
	cmp        writable.RawComparator
	prefix     writable.PrefixFunc // nil: the key type sorts by comparator only

	codec      kvbuf.Codec // nil: map output is stored and shuffled raw
	sortBytes  int         // io.sort.mb, in bytes
	factor     int         // io.sort.factor: merge fan-in on both sides
	spillPct   float64     // sort.spill.percent
	inflight   int         // sealed buffers the background spiller may hold; 0: spill inline
	slowstart  float64     // completed-map fraction before reducers launch
	copies     int         // shuffle connections per reduce task
	memBudget  int64       // reduce-side segment pool bound in bytes; 0: unbounded
	spillAbove int64       // pool bytes that trigger a background reduce-side spill

	backoff  faultinject.Backoff
	plan     *faultinject.Plan
	attempts int
}

// newTaskRunner validates the job and resolves its configuration. A conf
// value that does not parse, is out of range or names an unknown codec is a
// *mapreduce.JobError naming key and value.
func newTaskRunner(job *mapreduce.Job, opts *Options) (*TaskRunner, error) {
	tr := &TaskRunner{
		job:      job,
		jobID:    mapreduce.JobID{Seq: 1},
		copies:   opts.ParallelCopies,
		backoff:  opts.FetchBackoff,
		plan:     opts.Faults,
		attempts: opts.taskAttempts(),
	}
	if tr.backoff.Attempts == 0 && tr.plan != nil {
		tr.backoff.Attempts = tr.plan.FetchAttempts()
	}
	conf := job.Conf
	bad := func(key, want string) error {
		return &mapreduce.JobError{Msg: fmt.Sprintf("localrun: conf key %q = %q: want %s", key, conf.Get(key, ""), want)}
	}
	err := conf.Resolve(func() (err error) {
		if err := job.Validate(); err != nil {
			return err
		}
		if tr.splits, err = job.Input.Splits(conf); err != nil {
			return fmt.Errorf("localrun: computing splits: %w", err)
		}
		if len(tr.splits) == 0 {
			return &mapreduce.JobError{Msg: "localrun: input produced no splits"}
		}
		if tr.numReduces = conf.NumReduces(); tr.numReduces == 0 {
			return nil // map-only: nothing below is read
		}
		if tr.cmp, err = writable.Comparator(job.MapOutputKeyType); err != nil {
			return err
		}
		tr.prefix, _ = writable.PrefixExtractor(job.MapOutputKeyType)

		var ok bool
		if tr.codec, ok = kvbuf.CodecByName(conf.CompressCodec()); !ok {
			return bad(mapreduce.ConfCompressCodec, fmt.Sprintf("one of %v", kvbuf.CodecNames()))
		}
		if tr.sortBytes = conf.IOSortMB() << 20; tr.sortBytes <= 0 {
			return bad(mapreduce.ConfIOSortMB, "a positive MiB count")
		}
		if tr.factor = conf.IOSortFactor(); tr.factor < 2 {
			return bad(mapreduce.ConfIOSortFactor, "a fan-in of at least 2")
		}
		if tr.spillPct = conf.SortSpillPercent(); !(tr.spillPct > 0 && tr.spillPct <= 1) {
			return bad(mapreduce.ConfSortSpillPercent, "a fraction in (0, 1]")
		}
		if conf.SpillOverlap() {
			tr.inflight = conf.SpillInflight()
		}
		if tr.slowstart = conf.SlowstartMaps(); !(tr.slowstart >= 0 && tr.slowstart <= 1) {
			return bad(mapreduce.ConfSlowstartMaps, "a fraction in [0, 1]")
		}
		if tr.copies <= 0 {
			if tr.copies = conf.ParallelCopies(); tr.copies < 1 {
				return bad(mapreduce.ConfParallelCopies, "at least 1")
			}
		}
		if tr.memBudget = conf.ShuffleMemoryBytes(); tr.memBudget < 0 {
			return bad(mapreduce.ConfShuffleInputBufBytes, "a byte count, 0 for unbounded")
		}
		pct := conf.ShuffleMergePercent()
		if !(pct > 0 && pct <= 1) {
			return bad(mapreduce.ConfShuffleMergePct, "a fraction in (0, 1]")
		}
		tr.spillAbove = int64(float64(tr.memBudget) * pct)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// parallelism defaults an unset task-slot count to this host's GOMAXPROCS.
func parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes the job to completion and returns its merged counters.
func Run(job *mapreduce.Job, opts *Options) (*Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	tr, err := newTaskRunner(job, opts)
	if err != nil {
		return nil, err
	}
	numMaps, numReduces := len(tr.splits), tr.numReduces
	total := mapreduce.NewCounters()

	if numReduces == 0 {
		// Map-only job: mapper output goes straight to the output format.
		if job.Output == nil {
			return nil, &mapreduce.JobError{Msg: "localrun: map-only job needs an Output"}
		}
		taskCtrs := make([]*mapreduce.Counters, numMaps)
		err := parallelFor(numMaps, parallelism(opts.MapParallelism), func(i int) error {
			c, err := tr.runMapOnly(i)
			taskCtrs[i] = c
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, c := range taskCtrs {
			total.Merge(c)
		}
		return &Result{Counters: total, NumMaps: numMaps, Elapsed: time.Since(start)}, nil
	}

	server, err := newShuffleServer(opts.DiskShuffle)
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// One unified scheduler replaces the old map-barrier-reduce phases: map
	// and reduce attempts share a pool under separate slot caps, reducers
	// launching once the slow-start threshold of maps has committed to the
	// completion board and streaming the rest of their input as it appears.
	board := newCompletionBoard(numMaps)
	sched := newJobScheduler()
	mapSlots := make(chan struct{}, parallelism(opts.MapParallelism))
	reduceSlots := make(chan struct{}, parallelism(opts.ReduceParallelism))
	mapCtrs := make([]*mapreduce.Counters, numMaps)
	redCtrs := make([]*mapreduce.Counters, numReduces)
	jobTM := &mergeTimings{} // reduce-side merge pipeline totals
	jobST := &spillTimings{} // map-side collect/spill pipeline totals
	var firstReduceStart time.Time

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // map dispatch
		defer wg.Done()
		for i := 0; i < numMaps; i++ {
			if !sched.acquire(mapSlots) {
				return
			}
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-mapSlots }()
				c, err := tr.runMapWithRetry(i, server, board, jobST)
				mapCtrs[i] = c
				if err != nil {
					sched.fail(err)
				}
			}()
		}
	}()
	go func() { // reduce dispatch, gated on the slow-start threshold
		defer wg.Done()
		if !board.waitCommitted(slowstartTarget(tr.slowstart, numMaps), sched.done) {
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
				c, err := tr.runReduceWithRetry(r, server.Addr(), board, sched.done, jobTM)
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
		NumMaps:          numMaps,
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
// the job report shows what the executor survived. The winning attempt —
// and only it — is published to the completion board, so waiting reducers
// fetch it immediately and each map is announced once.
func (tr *TaskRunner) runMapWithRetry(idx int, server *shuffleServer, board *completionBoard, jobST *spillTimings) (*mapreduce.Counters, error) {
	faultCtrs := mapreduce.NewCounters()
	var lastErr error
	for attempt := 0; attempt < tr.attempts; attempt++ {
		tm := &spillTimings{}
		c, err := tr.runMapTask(mapreduce.MapAttempt(tr.jobID, idx, attempt), server, faultCtrs, tm)
		if err == nil {
			board.Announce(idx, attempt)
			c.Merge(faultCtrs)
			// Only the winning attempt's pipeline work counts, matching the
			// counter semantics above.
			jobST.absorb(tm)
			return c, nil
		}
		lastErr = err
		faultCtrs.IncrFault(mapreduce.CtrMapAttemptsFailed, 1)
	}
	return faultCtrs, fmt.Errorf("localrun: map %d failed after %d attempts: %w", idx, tr.attempts, lastErr)
}

// runReduceWithRetry is runMapWithRetry's reduce-side twin. done aborts
// attempts (and the wait for map announcements inside them) once the job
// has failed elsewhere.
func (tr *TaskRunner) runReduceWithRetry(r int, serverAddr string, board *completionBoard, done <-chan struct{}, jobTM *mergeTimings) (*mapreduce.Counters, error) {
	faultCtrs := mapreduce.NewCounters()
	var lastErr error
	for attempt := 0; attempt < tr.attempts; attempt++ {
		c, err := tr.runReduceTask(mapreduce.ReduceAttempt(tr.jobID, r, attempt), serverAddr, faultCtrs, board, done, jobTM)
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
	return faultCtrs, fmt.Errorf("localrun: reduce %d failed after %d attempts: %w", r, tr.attempts, lastErr)
}

// mapCollector routes mapper output into the sort buffer, spilling as the
// buffer fills. With a pipe the full buffer is handed to the background
// spiller and collection continues into a fresh ring buffer; without one
// (mapreduce.map.spill.overlap=false) the spill runs inline, stalling the
// collector for its whole duration. Spill boundaries are identical either
// way: every buffer has the full io.sort.mb capacity and the same ShouldSpill
// trigger decides when to seal.
type mapCollector struct {
	tr     *TaskRunner
	part   mapreduce.Partitioner
	buf    *kvbuf.SortBuffer
	ctrs   *mapreduce.Counters
	spills [][]*kvbuf.Segment

	// Per-record tallies stay in plain integers; runMapTask folds them into
	// ctrs once per attempt.
	outRecords, outBytes int64

	pipe *spillPipeline // non-nil: background spill overlap
	tm   *spillTimings  // this attempt's pipeline breakdown

	// Fault plumbing: aid names the running attempt (tr.plan injects spill
	// errors against it), faultCtrs outlives failed attempts.
	aid       mapreduce.TaskAttemptID
	faultCtrs *mapreduce.Counters
	spillSeq  int
}

func (mc *mapCollector) Collect(key, value writable.Writable) error {
	numReduces := mc.tr.numReduces
	p := mc.part.Partition(key, value, numReduces)
	if p < 0 || p >= numReduces {
		return fmt.Errorf("localrun: partitioner returned %d for %d reduces", p, numReduces)
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
	if mc.buf.ShouldSpill(mc.tr.spillPct) {
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
	if plan := mc.tr.plan; plan != nil && plan.SpillError(mc.aid.Task.Index, mc.aid.Attempt, seq) {
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
	err := mc.tr.sealSegments(segs, mc.ctrs)
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

func (tr *TaskRunner) runMapTask(aid mapreduce.TaskAttemptID, server *shuffleServer, faultCtrs *mapreduce.Counters, tm *spillTimings) (*mapreduce.Counters, error) {
	job, idx, numReduces, codec := tr.job, aid.Task.Index, tr.numReduces, tr.codec
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}
	reader, err := job.Input.Reader(tr.splits[idx], job.Conf)
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

	// Overlap mode (the default) spills on a background spiller fed from a
	// buffer ring; sync mode keeps the single-buffer spill-inline path.
	var pipe *spillPipeline
	var buf *kvbuf.SortBuffer
	if tr.inflight > 0 {
		pipe = newSpillPipeline(tr, tm)
		buf, _ = pipe.ring.Take()
	} else {
		buf = kvbuf.NewSortBuffer(tr.sortBytes, numReduces, tr.cmp)
		buf.SetPrefixFunc(tr.prefix)
	}
	mc := &mapCollector{
		tr:        tr,
		part:      part(),
		buf:       buf,
		ctrs:      ctrs,
		aid:       aid,
		faultCtrs: faultCtrs,
		pipe:      pipe,
		tm:        tm,
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
	if tr.plan != nil && tr.plan.FailMap(idx, aid.Attempt) {
		abortAt = numReduces / 2
	}

	// Merge runs per partition into the final map output (multi-pass with
	// io.sort.factor fan-in when a task spilled many times). Raw spill runs
	// are already combined/compressed per the job conf, so the single-spill
	// fast path registers them untouched; otherwise the merge decompresses
	// the raw runs (premerged blocks are kept uncompressed), merges,
	// re-combines (the combiner's second chance, as in Hadoop's merge-side
	// combine), and re-compresses the final output. Blocks replace contiguous
	// run ranges and every pass of MergeAll merges adjacent runs in place
	// (kvbuf.MergeInPlace), so the bytes are those of one flat merge of the
	// raw spills whether or not the spiller premerged.
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
			if final, err = tr.mergePartition(runs, p); err != nil {
				return ctrs, fmt.Errorf("localrun: map %d final merge: %w", idx, err)
			}
			if job.Combiner != nil && final.Records() > 0 {
				combined, err := tr.combineSegment(final, ctrs)
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

func (tr *TaskRunner) runReduceTask(aid mapreduce.TaskAttemptID, serverAddr string, faultCtrs *mapreduce.Counters, board *completionBoard, done <-chan struct{}, jobTM *mergeTimings) (*mapreduce.Counters, error) {
	r, numMaps := aid.Task.Index, len(tr.splits)
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}

	// Shuffle: stream this partition's segment from every map as it commits
	// to the completion board, over parallelcopies persistent pipelined
	// connections. Each fetch verifies the IFile checksum as it streams in
	// and retries transient failures with backoff. With a shuffle memory
	// budget the bounded pool's background spiller compacts in-memory
	// segments to on-disk runs while the copiers keep fetching.
	tm := &mergeTimings{} // this attempt's pipeline stats
	ss := newStreamShuffle(tr, serverAddr, r, board, tm)
	sres, err := ss.run(done)
	if sres.cleanup != nil {
		// Once the reduce pass below is done with the merge inputs, return
		// every fetched buffer to the segment pool and delete any disk runs
		// (a failed attempt cleans up the same way; the retry re-fetches).
		defer sres.cleanup()
	}
	sres.st.AddTo(faultCtrs)
	for m := 0; m < numMaps; m++ {
		if sres.fetched[m] {
			ctrs.IncrTask(mapreduce.CtrShuffledMaps, 1)
			ctrs.IncrTask(mapreduce.CtrReduceShuffleBytes, sres.wire[m])
		}
	}
	if err != nil {
		return ctrs, fmt.Errorf("localrun: reduce %d shuffle: %w", r, err)
	}

	if tr.plan != nil && tr.plan.FailReduce(r, aid.Attempt) {
		// The injected attempt failure strikes after the copy phase: all
		// shuffle work is wasted, the re-executed attempt re-fetches.
		return ctrs, faultinject.Errorf("localrun: %s aborted after shuffle", aid)
	}

	if sres.inputs != nil {
		// Bounded pool with spilled runs: stream the final merge over the
		// mixed memory+disk source set.
		err = tr.reduceOverInputs(r, sres.inputs, &ss.rdir, tm, ctrs, rep)
	} else {
		t0 := time.Now()
		err = tr.reduceOverParts(r, sres.parts, ctrs, rep)
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

func (tr *TaskRunner) runMapOnly(idx int) (*mapreduce.Counters, error) {
	job := tr.job
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}
	reader, err := job.Input.Reader(tr.splits[idx], job.Conf)
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
	if err := mapInto(reader, job.Mapper(), out, rep, &inRecords); err != nil {
		writer.Abort() // no open file, no partial part left by a failed attempt
		return ctrs, err
	}
	chargeInputBytes(ctrs, reader)
	return ctrs, writer.Close()
}

// mapInto feeds every record of reader through mapper, then closes the
// mapper, counting input records into *in.
func mapInto(reader mapreduce.RecordReader, mapper mapreduce.Mapper, out mapreduce.Collector, rep mapreduce.Reporter, in *int64) error {
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			return mapper.Close(out, rep)
		}
		*in++
		if err := mapper.Map(k, v, out, rep); err != nil {
			return err
		}
	}
}

// chargeInputBytes credits MAP_INPUT_BYTES when the reader can account for
// its consumption (file-backed splits; synthetic readers read nothing).
func chargeInputBytes(ctrs *mapreduce.Counters, reader mapreduce.RecordReader) {
	if ib, ok := reader.(interface{ InputBytes() int64 }); ok {
		ctrs.IncrTask(mapreduce.CtrMapInputBytes, ib.InputBytes())
	}
}
