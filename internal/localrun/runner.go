package localrun

import (
	"context"
	"fmt"
	"os"
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

	// Phase split of the overlapped schedule: MapPhase spans job start to
	// the last map commit, OverlapWindow is how long map and reduce attempts
	// ran concurrently within it, and ReduceTail is the exposed reduce time
	// after the last map commit. The overlap win shows up as OverlapWindow
	// growing and ReduceTail shrinking while output bytes stay identical. A
	// map-only job has no overlap: its MapPhase ends at the last map's
	// output commit and its ReduceTail is only the job's wind-down after it.
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
	order      writable.KeyOrder

	codec      kvbuf.Codec // nil: map output is stored and shuffled raw
	sortBytes  int         // io.sort.mb, in bytes
	factor     int         // io.sort.factor: merge fan-in on both sides
	spillPct   float64     // sort.spill.percent
	inflight   int         // sealed buffers the background spiller may hold; 0: spill inline
	slowstart  float64     // completed-map fraction before reducers launch
	copies     int         // shuffle connections per reduce task
	memBudget  int64       // reduce-side segment pool bound in bytes; 0: unbounded
	spillAbove int64       // pool bytes that trigger a background reduce-side spill

	backoff faultinject.Backoff
	plan    *faultinject.Plan

	// dir is the job's scratch root, where the disk store's spill file and
	// every reduce attempt's run files are made; "" is the process temp dir.
	dir string

	// total sums every winning attempt's breakdown; a pointer, so the
	// attempts of the copies withPlan makes count toward it too.
	total *tally
}

// newTaskRunner validates the job and resolves its configuration. A conf
// value that does not parse, is out of range or names an unknown codec is a
// *mapreduce.JobError naming key and value.
func newTaskRunner(job *mapreduce.Job, opts *Options) (*TaskRunner, error) {
	tr := &TaskRunner{
		job:     job,
		jobID:   mapreduce.JobID{Seq: 1},
		copies:  opts.ParallelCopies,
		backoff: fetchBackoff(opts.FetchBackoff, opts.Faults),
		plan:    opts.Faults,
		total:   &tally{},
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
		if tr.order, err = writable.Order(job.MapOutputKeyType); err != nil {
			return err
		}

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

// fetchBackoff resolves the shuffle-fetch retry schedule: an unset attempt
// bound takes the fault plan's.
func fetchBackoff(bo faultinject.Backoff, plan *faultinject.Plan) faultinject.Backoff {
	if bo.Attempts == 0 && plan != nil {
		bo.Attempts = plan.FetchAttempts()
	}
	return bo
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
	return RunContext(context.Background(), job, opts)
}

// RunContext is Run under ctx. The job has one context: a failing task ends
// it with its error, and so does the caller's cancel or deadline with ctx's
// cause. Either way no further task is launched, blocked waits return, and
// the cause is the job's error.
func RunContext(ctx context.Context, job *mapreduce.Job, opts *Options) (*Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	tr, err := newTaskRunner(job, opts)
	if err != nil {
		return nil, err
	}
	numMaps, numReduces := len(tr.splits), tr.numReduces

	// One scratch root per job, Hadoop's jobcache/<jobid>: it goes however
	// the job ends, after the server (deferred below) closes its spill file.
	if tr.dir, err = os.MkdirTemp("", "mrmicro-job-"); err != nil {
		return nil, fmt.Errorf("localrun: job scratch root: %w", err)
	}
	defer os.RemoveAll(tr.dir)

	// A map-only job commits each map's output straight to the output
	// format: no shuffle server, no reduce dispatch. Every other job's maps
	// register their partitions with the server, and the board names it.
	var server *shuffleServer
	var addr string
	if numReduces == 0 {
		if job.Output == nil {
			return nil, &mapreduce.JobError{Msg: "localrun: map-only job needs an Output"}
		}
	} else {
		if server, err = newShuffleServer(opts.DiskShuffle, tr.dir); err != nil {
			return nil, err
		}
		defer server.Close()
		addr = server.Addr()
	}

	// One scheduler runs every job: map and reduce attempts share a pool
	// under separate slot caps, reducers launching once the slow-start
	// threshold of maps has committed to the completion board and streaming
	// the rest of their input as it appears.
	board := newCompletionBoard(numMaps)
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	mapCtrs := make([]*mapreduce.Counters, numMaps)
	redCtrs := make([]*mapreduce.Counters, numReduces)
	blame := NewBlame(tr.plan)
	var firstReduceStart time.Time

	var wg sync.WaitGroup
	// dispatch launches the tasks of one type in index order, at most
	// `slots` at a time, until every one is launched or the job has ended;
	// task i's counters land in ctrs[i].
	dispatch := func(typ mapreduce.TaskType, slots int, ctrs []*mapreduce.Counters, attempt attemptFunc) {
		sem := make(chan struct{}, slots)
		for i := range ctrs {
			if !acquire(ctx, sem) {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				c, err := tr.runTask(ctx, mapreduce.TaskID{Job: tr.jobID, Type: typ, Index: i}, blame, attempt)
				ctrs[i] = c
				if err != nil {
					fail(err)
				}
			}()
		}
	}

	wg.Add(1)
	go func() { // map dispatch
		defer wg.Done()
		dispatch(mapreduce.TaskMap, parallelism(opts.MapParallelism), mapCtrs, func(_ context.Context, aid mapreduce.TaskAttemptID, faultCtrs *mapreduce.Counters) (*mapreduce.Counters, error) {
			var c *mapreduce.Counters
			var err error
			if server == nil {
				c, err = tr.runMapOnly(aid)
			} else {
				c, err = tr.runMapTask(aid, server, faultCtrs)
			}
			if err == nil {
				// The winning attempt — and only it — is published, so
				// waiting reducers fetch it at once and each map is announced
				// once.
				board.Announce(aid.Task.Index, aid.Attempt, addr)
			}
			return c, err
		})
	}()
	if numReduces > 0 {
		wg.Add(1)
		go func() { // reduce dispatch, gated on the slow-start threshold
			defer wg.Done()
			if !board.waitCommitted(ctx, slowstartTarget(tr.slowstart, numMaps)) {
				return
			}
			firstReduceStart = time.Now()
			dispatch(mapreduce.TaskReduce, parallelism(opts.ReduceParallelism), redCtrs, func(ctx context.Context, aid mapreduce.TaskAttemptID, faultCtrs *mapreduce.Counters) (*mapreduce.Counters, error) {
				return tr.runReduceTask(ctx, aid, faultCtrs, board, nil)
			})
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}

	total := mapreduce.NewCounters()
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
		ReduceMerge:      tr.total.reduceMerge(),
		MapSpill:         tr.total.mapSpill(),
	}
	if !firstReduceStart.IsZero() && lastCommit.After(firstReduceStart) {
		res.OverlapWindow = lastCommit.Sub(firstReduceStart)
	}
	return res, nil
}

// acquire takes a slot from sem unless ctx has ended. It re-checks after
// acquiring, so a slot freed by a failing task launches no more work.
func acquire(ctx context.Context, sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	if ctx.Err() != nil {
		<-sem
		return false
	}
	return true
}

// attemptFunc runs one attempt of a task under the job's context. faultCtrs
// is the task's fault tally, shared by all its attempts; the counters
// returned are the attempt's own.
type attemptFunc func(ctx context.Context, aid mapreduce.TaskAttemptID, faultCtrs *mapreduce.Counters) (*mapreduce.Counters, error)

// runTask executes one map or reduce task, re-executing failed attempts with
// fresh attempt IDs until one succeeds or blame fails the job (Hadoop's
// mapreduce.{map,reduce}.maxattempts). Each attempt gets fresh task counters
// — only the winning attempt's work counts, as in Hadoop — while fault
// counters accumulate across attempts, each failure counted in
// MAP_ATTEMPTS_FAILED or REDUCE_ATTEMPTS_FAILED. A map charged for a
// reduce's fetch failure is not re-run: the server keeps serving the bytes
// it registered, and only the reduce retries. Once the job has ended
// elsewhere (ctx done: a task failed, or the caller cancelled) a failed
// attempt is neither charged nor re-executed: a reduce would only wait on
// announcements that never come.
func (tr *TaskRunner) runTask(ctx context.Context, task mapreduce.TaskID, blame *Blame, attempt attemptFunc) (*mapreduce.Counters, error) {
	failedCtr := mapreduce.CtrMapAttemptsFailed
	if task.Type == mapreduce.TaskReduce {
		failedCtr = mapreduce.CtrReduceAttemptsFailed
	}
	faultCtrs := mapreduce.NewCounters()
	for n := 0; ; n++ {
		c, err := attempt(ctx, mapreduce.TaskAttemptID{Task: task, Attempt: n}, faultCtrs)
		if err == nil {
			c.Merge(faultCtrs)
			return c, nil
		}
		faultCtrs.IncrFault(failedCtr, 1)
		if ctx.Err() != nil {
			return faultCtrs, fmt.Errorf("localrun: %s %d: %w", kindOf(task.Type), task.Index, err)
		}
		if err := blame.Charge(task, err); err != nil {
			return faultCtrs, err
		}
	}
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
	tm   *tally         // this attempt's pipeline breakdown

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

// emit serialises one record straight into partition p's open chunk of the
// sort buffer and commits it there, returning its serialised size; ok=false
// when the buffer must spill first.
func (mc *mapCollector) emit(p int, key, value writable.Writable) (n int, ok bool, err error) {
	out := mc.buf.Reserve(p)
	key.Write(out)
	kl := out.Len()
	value.Write(out)
	n = out.Len()
	ok, err = mc.buf.Commit(kl)
	return n, ok, err
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
	mc.tm.add(spills, 1)
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
			mc.tm.since(collectStall, t0)
		}
		mc.buf = buf
		return nil
	}

	// Synchronous mode: the whole seal path runs inline on the mapper
	// goroutine, so the spill's duration is both work and stall.
	t0 := time.Now()
	segs, comps := mc.buf.Spill()
	mc.tm.add(sortComps, comps)
	err := mc.tr.sealSegments(segs, mc.ctrs, mc.tm)
	d := time.Since(t0)
	mc.tm.add(spillWork, int64(d))
	mc.tm.add(collectStall, int64(d))
	if err != nil {
		recycleSegs(segs)
		return err
	}
	mc.spills = append(mc.spills, segs)
	return nil
}

// runMapTask runs one map attempt and registers its output with server. A
// winning attempt's pipeline breakdown joins the runner's total.
func (tr *TaskRunner) runMapTask(aid mapreduce.TaskAttemptID, server *shuffleServer, faultCtrs *mapreduce.Counters) (*mapreduce.Counters, error) {
	job, idx, numReduces := tr.job, aid.Task.Index, tr.numReduces
	ctrs := mapreduce.NewCounters()
	tm := &tally{}
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
		buf = kvbuf.NewSortBuffer(tr.sortBytes, numReduces, tr.order.Cmp)
		buf.SetPrefixFunc(tr.order.Prefix)
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
	defer func() {
		if pipe != nil && !drained {
			pipe.abort()
		}
		if mc.buf != nil {
			mc.buf.Release()
		}
		// Deferred so a failed attempt still reports what it did.
		addTask(ctrs, mapreduce.CtrMapOutputRecords, mc.outRecords)
		addTask(ctrs, mapreduce.CtrMapOutputBytes, mc.outBytes)
	}()
	if err := tr.mapInto(idx, mc, ctrs); err != nil {
		return ctrs, err
	}
	if err := mc.spill(); err != nil {
		return ctrs, err
	}

	// Collect the attempt's runs: drain the background spiller (overlapping
	// the tail of collection was its whole point — only the last spills wait
	// here), or adopt the synchronous spill list as raw runs.
	var runs []mapRun
	var err error
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
			empty[p] = kvbuf.NewWriter(8).Close()
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
	// io.sort.factor fan-in when a task spilled many times). A raw spill run
	// is already combined per the job conf, so the single-spill fast path
	// takes it untouched; otherwise the merge re-combines (the combiner's
	// second chance, as in Hadoop's merge-side combine). Blocks replace
	// contiguous run ranges and every pass of MergeAll merges adjacent runs
	// in place (kvbuf.MergeInPlace), so the bytes are those of one flat merge
	// of the raw spills whether or not the spiller premerged. Spills stay in
	// memory, so the codec has no spill file to shrink: each partition's
	// final segment is compressed once, here, as it is registered.
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
			if final, err = tr.mergePartition(runs, p, tm); err != nil {
				return ctrs, fmt.Errorf("localrun: map %d final merge: %w", idx, err)
			}
			if job.Combiner != nil && final.Records() > 0 {
				combined, err := tr.combineSegment(final, ctrs, tm)
				if err != nil {
					return ctrs, fmt.Errorf("localrun: map %d merge combine: %w", idx, err)
				}
				final.Recycle()
				final = combined
			}
		}
		if tr.codec != nil {
			z := kvbuf.CompressSegmentWith(final, tr.codec)
			final.Recycle()
			final = z
		}
		if err := server.Register(idx, p, final); err != nil {
			return ctrs, fmt.Errorf("localrun: %s: %w", aid, err)
		}
	}
	tm.since(mapFinalMerge, mergeStart)
	tr.total.absorb(tm)
	return ctrs, nil
}

// runReduceTask runs one reduce attempt: the copy phase over the maps board
// announces, with midShuffle as its checkpoint (streamShuffle.midShuffle),
// then the merge and reduce tail. The copy phase ends early when ctx does.
// A winning attempt's merge breakdown joins the runner's total.
func (tr *TaskRunner) runReduceTask(ctx context.Context, aid mapreduce.TaskAttemptID, faultCtrs *mapreduce.Counters, board *completionBoard, midShuffle func()) (*mapreduce.Counters, error) {
	r, numMaps := aid.Task.Index, len(tr.splits)
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}

	// Shuffle: stream this partition's segment from every map as it commits
	// to the completion board, over parallelcopies persistent pipelined
	// connections to the servers the board names. Each fetch verifies the
	// IFile checksum as it streams in and retries transient failures with
	// backoff. With a shuffle memory budget the bounded pool's background
	// spiller compacts in-memory segments to on-disk runs while the copiers
	// keep fetching.
	tm := &tally{}
	ss := newStreamShuffle(tr, r, board, tm)
	ss.midShuffle = midShuffle
	sres, err := ss.run(ctx)
	if sres.cleanup != nil {
		// Once the reduce pass below is done with the merge inputs, return
		// every fetched buffer to the segment pool and delete any disk runs
		// (a failed attempt cleans up the same way; the retry re-fetches).
		defer sres.cleanup()
	}
	sres.st.addTo(faultCtrs)
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
		err = tr.reduceOverParts(r, sres.parts, tm, ctrs, rep)
		tm.since(reduceFinalMerge, t0)
	}
	if err != nil {
		return ctrs, err
	}
	// Reduce-side disk runs count as spilled records, as in Hadoop. The
	// total is schedule-dependent under a general budget (which segments
	// share a spill depends on fetch arrival order), so identity checks
	// treat it separately from the deterministic task counters.
	if sr := tm[spilledRecs].Load(); sr > 0 {
		ctrs.IncrTask(mapreduce.CtrSpilledRecords, sr)
	}
	tr.total.absorb(tm)
	return ctrs, nil
}

// runMapOnly runs one attempt of a map-only job's map task: the mapper's
// output goes straight to the output format's writer for task idx, which
// commits it when the attempt succeeds and leaves nothing behind when it
// fails, so a re-executed attempt starts from an empty slot.
func (tr *TaskRunner) runMapOnly(aid mapreduce.TaskAttemptID) (*mapreduce.Counters, error) {
	job, idx := tr.job, aid.Task.Index
	ctrs := mapreduce.NewCounters()
	writer, err := job.Output.Writer(job.Conf, idx)
	if err != nil {
		return ctrs, fmt.Errorf("localrun: map %d output: %w", idx, err)
	}
	var outRecords int64
	defer func() { addTask(ctrs, mapreduce.CtrMapOutputRecords, outRecords) }()
	out := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		outRecords++
		return writer.Write(k, v)
	})
	if err := tr.mapInto(idx, out, ctrs); err != nil {
		writer.Abort() // no open file, no partial part left by a failed attempt
		return ctrs, err
	}
	if err := writer.Close(); err != nil {
		return ctrs, fmt.Errorf("localrun: map %d commit: %w", idx, err)
	}
	return ctrs, nil
}

// mapInto feeds every record of map task idx's split through a fresh mapper
// into out, then closes the mapper, counting MAP_INPUT_RECORDS (also for a
// failed attempt) and MAP_INPUT_BYTES into ctrs.
func (tr *TaskRunner) mapInto(idx int, out mapreduce.Collector, ctrs *mapreduce.Counters) error {
	job := tr.job
	reader, err := job.Input.Reader(tr.splits[idx], job.Conf)
	if err != nil {
		return fmt.Errorf("localrun: map %d reader: %w", idx, err)
	}
	defer reader.Close()
	var in int64
	defer func() { addTask(ctrs, mapreduce.CtrMapInputRecords, in) }()
	rep := &mapreduce.CountersReporter{C: ctrs}
	mapper := job.Mapper()
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return fmt.Errorf("localrun: map %d input: %w", idx, err)
		}
		if !ok {
			break
		}
		in++
		if err := mapper.Map(k, v, out, rep); err != nil {
			return fmt.Errorf("localrun: map %d: %w", idx, err)
		}
	}
	if err := mapper.Close(out, rep); err != nil {
		return fmt.Errorf("localrun: map %d close: %w", idx, err)
	}
	chargeInputBytes(ctrs, reader)
	return nil
}

// chargeInputBytes credits MAP_INPUT_BYTES when the reader can account for
// its consumption (file-backed splits; synthetic readers read nothing).
func chargeInputBytes(ctrs *mapreduce.Counters, reader mapreduce.RecordReader) {
	if ib, ok := reader.(interface{ InputBytes() int64 }); ok {
		ctrs.IncrTask(mapreduce.CtrMapInputBytes, ib.InputBytes())
	}
}
