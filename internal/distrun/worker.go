package distrun

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/hadooprpc"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// Worker processes bootstrap by re-executing the parent binary: the spawner
// sets these variables and any main() (or TestMain) that calls MaybeWorker
// first becomes a worker when they are present. This is how the crash tests
// get real separate processes without shipping a prebuilt binary around.
const (
	// EnvCoordAddr holds the coordinator's address; its presence turns the
	// process into a worker.
	EnvCoordAddr = "MRMICRO_DIST_WORKER"
	// EnvWorkerIndex is the worker's slot index (stable across respawns).
	EnvWorkerIndex = "MRMICRO_DIST_INDEX"
	// EnvWorkerEpoch counts process incarnations of the slot (0 = first).
	EnvWorkerEpoch = "MRMICRO_DIST_EPOCH"
)

// Worker exit codes. The spawner respawns any abnormal exit; a zero exit
// means the coordinator said the job is over.
const (
	exitOK     = 0
	exitErr    = 1
	exitKilled = 7 // injected KindWorkerKill
)

// MaybeWorker turns the process into a distrun worker when the spawner's
// environment variables are present, never returning in that case. Call it
// at the top of main() (and of TestMain in packages whose tests spawn
// workers); in a normal invocation it is a no-op.
func MaybeWorker() {
	addr := os.Getenv(EnvCoordAddr)
	if addr == "" {
		return
	}
	index, _ := strconv.Atoi(os.Getenv(EnvWorkerIndex))
	epoch, _ := strconv.Atoi(os.Getenv(EnvWorkerEpoch))
	if err := runWorker(addr, index, epoch); err != nil {
		fmt.Fprintf(os.Stderr, "mrworker[%d.%d]: %v\n", index, epoch, err)
		os.Exit(exitErr)
	}
	os.Exit(exitOK)
}

// RunWorker runs this process as one worker against the coordinator at addr,
// returning once the coordinator dismisses it (the job finished or failed).
// cmd/mrworker uses it to join a coordinator started elsewhere — e.g. one
// launched by cmd/mrcoord in another shell; coordinator-spawned workers
// bootstrap through MaybeWorker instead.
func RunWorker(addr string, index, epoch int) error {
	return runWorker(addr, index, epoch)
}

// worker is one worker process's state.
type worker struct {
	coord  *hadooprpc.RetryClient
	index  int
	epoch  int
	server *localrun.ShuffleServer

	job    *mapreduce.Job
	runner *localrun.TaskRunner
	plan   *faultinject.Plan
	digest *digestOutput

	session   atomic.Int64
	seq       int          // process-fault checkpoint counter
	stallNano atomic.Int64 // injected partition: control plane stalls until this time

	mu        sync.Mutex
	held      map[int]int64                  // committed maps this process serves: map -> version
	faultCtrs map[string]*mapreduce.Counters // per task key: fault counters across attempts
}

// runWorker is the worker main loop: register, heartbeat, then ask for and
// execute task attempts until the coordinator says exit.
func runWorker(addr string, index, epoch int) error {
	server, err := localrun.NewShuffleServer()
	if err != nil {
		return err
	}
	defer server.Close()
	w := &worker{
		coord:     hadooprpc.NewRetryClient(addr, Protocol),
		index:     index,
		epoch:     epoch,
		server:    server,
		held:      make(map[int]int64),
		faultCtrs: make(map[string]*mapreduce.Counters),
	}
	defer w.coord.Close()

	beat, err := w.register()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(beat, stop)
	return w.taskLoop()
}

// register announces the worker (with any held map outputs) and installs the
// job the coordinator handed back. Re-registration after being fenced reuses
// the same path: the coordinator sees a fresh session holding our bytes.
func (w *worker) register() (heartbeat time.Duration, err error) {
	w.mu.Lock()
	held := make([]heldMap, 0, len(w.held))
	for m, v := range w.held {
		held = append(held, heldMap{Map: m, Version: v})
	}
	w.mu.Unlock()
	var resp registerResp
	if err := call(w.coord, MethodRegister, &registerReq{
		Index: w.index,
		Epoch: w.epoch,
		Addr:  w.server.Addr(),
		Held:  held,
	}, &resp); err != nil {
		return 0, err
	}
	w.session.Store(resp.Session)
	w.plan = resp.Plan
	if w.job == nil {
		cfg, err := microbench.ParseRepro(resp.Repro)
		if err != nil {
			return 0, fmt.Errorf("distrun: worker job spec: %w", err)
		}
		cfg.Faults = resp.Plan
		job, err := microbench.BuildJob(cfg)
		if err != nil {
			return 0, err
		}
		if resp.Digest {
			w.digest = newDigestOutput(job.Output)
			job.Output = w.digest
		}
		runner, err := localrun.NewTaskRunner(job)
		if err != nil {
			return 0, err
		}
		w.job = job
		w.runner = runner
	}
	return time.Duration(resp.HeartbeatEvery), nil
}

// heartbeatLoop keeps the session alive. An injected partition suppresses
// beats (the control plane is "cut"), so the coordinator times the worker
// out for real.
func (w *worker) heartbeatLoop(every time.Duration, stop <-chan struct{}) {
	if every <= 0 {
		every = 25 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if time.Now().UnixNano() < w.stallNano.Load() {
				continue
			}
			var resp sessionResp
			// Fenced or unreachable states are the task loop's problem; the
			// heartbeat just keeps trying.
			_ = call(w.coord, MethodHeartbeat, &sessionReq{Session: w.session.Load()}, &resp)
		}
	}
}

// checkpoint advances the process-fault sequence and injects whatever the
// plan dictates at it: KindWorkerKill exits the process on the spot;
// KindPartition cuts the control plane (heartbeats and the task loop both
// stall) long enough to be declared dead and fenced.
func (w *worker) checkpoint() {
	seq := w.seq
	w.seq++
	if w.plan == nil {
		return
	}
	switch w.plan.Proc(w.index, w.epoch, seq) {
	case faultinject.KindWorkerKill:
		os.Exit(exitKilled)
	case faultinject.KindPartition:
		d := w.plan.PartitionFor()
		w.stallNano.Store(time.Now().Add(d).UnixNano())
		time.Sleep(d)
	}
}

// fenced re-registers after the coordinator rejected our session (it timed
// us out, or it is a restarted process that never knew us).
func (w *worker) fenced() error {
	_, err := w.register()
	return err
}

// taskLoop asks for work until told to exit.
func (w *worker) taskLoop() error {
	for {
		var task taskResp
		if err := call(w.coord, MethodGetTask, &sessionReq{Session: w.session.Load()}, &task); err != nil {
			return err
		}
		if task.Fenced {
			if err := w.fenced(); err != nil {
				return err
			}
			continue
		}
		switch task.Kind {
		case TaskWait:
			time.Sleep(2 * time.Millisecond)
		case TaskExit:
			return nil
		case TaskMap:
			w.checkpoint() // pre-task
			if err := w.runMap(task.Task, task.Attempt); err != nil {
				return err
			}
		case TaskReduce:
			w.checkpoint() // pre-task
			if err := w.runReduce(task.Task, task.Attempt, task.Maps); err != nil {
				return err
			}
		default:
			return fmt.Errorf("distrun: unknown task kind %q", task.Kind)
		}
	}
}

// taskFaultCtrs returns the fault-counter accumulator shared by every
// attempt of one task this process runs (mirroring localrun's
// runMapWithRetry, where fault counters outlive failed attempts).
func (w *worker) taskFaultCtrs(kind string, idx int) *mapreduce.Counters {
	key := fmt.Sprintf("%s/%d", kind, idx)
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.faultCtrs[key]
	if c == nil {
		c = mapreduce.NewCounters()
		w.faultCtrs[key] = c
	}
	return c
}

// report sends a task-failure note; delivery is best effort (a fenced
// session re-registers and the coordinator re-queues by timeout anyway).
// fetch marks a blameless abandonment over an unreachable map output.
func (w *worker) reportFailed(kind string, task, attempt int, fetch bool, cause error) {
	var resp sessionResp
	_ = call(w.coord, MethodTaskFailed, &taskFailedReq{
		Session: w.session.Load(),
		Kind:    kind,
		Task:    task,
		Attempt: attempt,
		Err:     cause.Error(),
		Fetch:   fetch,
	}, &resp)
}

// runMap executes one map attempt and commits it. A losing commit (a rival
// attempt won) withdraws this attempt's output from the shuffle server.
func (w *worker) runMap(idx, attempt int) error {
	faultCtrs := w.taskFaultCtrs(TaskMap, idx)
	ctrs, err := w.runner.RunMap(idx, attempt, w.server, w.plan, faultCtrs)
	if err != nil {
		faultCtrs.IncrFault(mapreduce.CtrMapAttemptsFailed, 1)
		w.server.Unregister(idx) // partial registrations must not be fetchable
		w.reportFailed(TaskMap, idx, attempt, false, err)
		return nil
	}
	ctrs.Merge(faultCtrs)
	w.checkpoint() // pre-commit

	req := &commitMapReq{Task: idx, Attempt: attempt, Counters: ctrs.Snapshot()}
	for {
		req.Session = w.session.Load()
		var resp commitResp
		if err := call(w.coord, MethodCommitMap, req, &resp); err != nil {
			return err
		}
		if resp.Fenced {
			if err := w.fenced(); err != nil {
				return err
			}
			continue
		}
		if resp.Win {
			w.mu.Lock()
			w.held[idx] = resp.Version
			w.mu.Unlock()
		} else {
			w.server.Unregister(idx)
		}
		return nil
	}
}

// runReduce fetches every map's partition from its holder, runs the reduce
// tail, and commits counters + digest. A permanently unfetchable map (its
// worker died) is reported so the coordinator re-runs that map, and the
// reduce attempt is abandoned for a later retry.
func (w *worker) runReduce(r, attempt int, maps []mapLoc) error {
	faultCtrs := w.taskFaultCtrs(TaskReduce, r)
	compressed := w.runner.Compressed()
	parts := make([]*kvbuf.Segment, len(maps))
	// One persistent connection per peer for the whole fetch loop; the
	// fetched buffers go back to the segment pool once the reduce tail is
	// done with them, however this attempt ends.
	fetchers := make(map[string]*localrun.MapOutputFetcher)
	defer func() {
		for _, f := range fetchers {
			f.Close()
		}
		for _, seg := range parts {
			if seg != nil {
				seg.Recycle()
			}
		}
	}()
	ctrs := mapreduce.NewCounters()
	for i, loc := range maps {
		if i == len(maps)/2 {
			w.checkpoint() // mid-shuffle
		}
		f := fetchers[loc.Addr]
		if f == nil {
			f = localrun.NewMapOutputFetcher(loc.Addr, r, compressed, w.plan, faultinject.Backoff{})
			fetchers[loc.Addr] = f
		}
		seg, wireLen, st, err := f.Fetch(loc.Map)
		st.AddTo(faultCtrs)
		if err != nil {
			var fresp sessionResp
			_ = call(w.coord, MethodFetchFailed, &fetchFailedReq{
				Session: w.session.Load(),
				Reduce:  r,
				Map:     loc.Map,
				Version: loc.Version,
			}, &fresp)
			faultCtrs.IncrFault(mapreduce.CtrReduceAttemptsFailed, 1)
			w.reportFailed(TaskReduce, r, attempt, true, fmt.Errorf("fetch map %d from %s: %w", loc.Map, loc.Addr, err))
			return nil
		}
		parts[i] = seg
		ctrs.IncrTask(mapreduce.CtrShuffledMaps, 1)
		ctrs.IncrTask(mapreduce.CtrReduceShuffleBytes, wireLen)
	}

	rctrs, err := w.runner.RunReduce(r, attempt, parts, w.plan)
	if err != nil {
		faultCtrs.IncrFault(mapreduce.CtrReduceAttemptsFailed, 1)
		w.reportFailed(TaskReduce, r, attempt, false, err)
		return nil
	}
	ctrs.Merge(rctrs)
	ctrs.Merge(faultCtrs)
	w.checkpoint() // pre-commit

	var digest uint64
	if w.digest != nil {
		digest = w.digest.digest(r)
	}
	req := &commitReduceReq{
		Task:     r,
		Attempt:  attempt,
		Counters: ctrs.Snapshot(),
		Digest:   digest,
		Records:  ctrs.Task(mapreduce.CtrReduceInputRecords),
	}
	for {
		req.Session = w.session.Load()
		var resp commitResp
		if err := call(w.coord, MethodCommitReduce, req, &resp); err != nil {
			return err
		}
		if resp.Fenced {
			if err := w.fenced(); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}
