package distrun

// This file is the worker: it registers with the coordinator,
// heartbeats, and runs each attempt it is handed through localrun's task
// bodies — a map into its own shuffle server, a reduce through the
// in-process executor's copy phase, whose parallel copiers fetch each map's
// partition from the worker serving it into the (optionally bounded) merge.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/hadooprpc"
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

// errKilled is the cause a killed worker's context ends with: an injected
// KindWorkerKill, or the pool's KillWorker for an in-process worker.
var errKilled = errors.New("distrun: worker killed")

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
	code := exitOK
	if err := RunWorker(context.Background(), addr, index, epoch); errors.Is(err, errKilled) {
		code = exitKilled
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "mrworker[%d.%d]: %v\n", index, epoch, err)
		code = exitErr
	}
	os.Exit(code)
}

// worker is one worker's state.
type worker struct {
	ctx    context.Context // ends when the worker dies
	kill   context.CancelCauseFunc
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
	held      map[int]int64                  // committed maps this worker serves: map -> version
	faultCtrs map[string]*mapreduce.Counters // per task key: fault counters across attempts
}

// RunWorker runs one worker against the coordinator at addr — register,
// heartbeat, then ask for and execute task attempts — returning nil once the
// coordinator dismisses it (the job finished or failed). It dies when ctx
// ends or an injected kill cancels its own context: its shuffle server and
// coordinator connection close at once, and it returns the cause once its
// task reaches its next wait. cmd/mrworker uses it to join a coordinator
// started elsewhere (e.g. by cmd/mrcoord); MaybeWorker and the pool's
// goroutines run it for coordinator-spawned workers.
func RunWorker(ctx context.Context, addr string, index, epoch int) (err error) {
	server, err := localrun.NewShuffleServer()
	if err != nil {
		return err
	}
	ctx, kill := context.WithCancelCause(ctx)
	w := &worker{
		ctx:       ctx,
		kill:      kill,
		coord:     hadooprpc.NewRetryClient(addr, Protocol),
		index:     index,
		epoch:     epoch,
		server:    server,
		held:      make(map[int]int64),
		faultCtrs: make(map[string]*mapreduce.Counters),
	}
	hangUp := sync.OnceFunc(func() { w.coord.Close(); server.Close() })
	stop := context.AfterFunc(ctx, hangUp)
	var beating sync.WaitGroup
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = context.Cause(ctx) // a dead worker's closed connections only echo its death
		}
		stop()
		hangUp()
		kill(nil)
		beating.Wait()
	}()

	beat, err := w.register()
	if err != nil {
		return err
	}
	beating.Add(1)
	go func() {
		defer beating.Done()
		w.heartbeatLoop(beat)
	}()
	return w.taskLoop()
}

// sleep waits d, or until the worker dies.
func (w *worker) sleep(d time.Duration) {
	select {
	case <-time.After(d):
	case <-w.ctx.Done():
	}
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

// heartbeatLoop keeps the session alive until the worker ends. An injected
// partition suppresses beats (the control plane is "cut"), so the
// coordinator times the worker out for real.
func (w *worker) heartbeatLoop(every time.Duration) {
	if every <= 0 {
		every = 25 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-w.ctx.Done():
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
// plan dictates at it: KindWorkerKill kills the worker (its context ends
// with errKilled); KindPartition cuts the control plane (heartbeats and the
// task loop both stall) long enough to be declared dead and fenced. It
// returns the worker's cause of death, nil while it lives.
func (w *worker) checkpoint() error {
	seq := w.seq
	w.seq++
	if w.plan != nil {
		switch w.plan.Proc(w.index, w.epoch, seq) {
		case faultinject.KindWorkerKill:
			w.kill(errKilled)
		case faultinject.KindPartition:
			d := w.plan.PartitionFor()
			w.stallNano.Store(time.Now().Add(d).UnixNano())
			w.sleep(d)
		}
	}
	return context.Cause(w.ctx)
}

// taskLoop asks for work until told to exit or the worker dies.
func (w *worker) taskLoop() error {
	for {
		var task taskResp
		if err := call(w.coord, MethodGetTask, &sessionReq{Session: w.session.Load()}, &task); err != nil {
			return err
		}
		if task.Fenced { // timed out, or a restarted coordinator never knew us
			if _, err := w.register(); err != nil {
				return err
			}
			continue
		}
		var err error
		switch task.Kind {
		case TaskWait:
			w.sleep(2 * time.Millisecond)
		case TaskExit:
			return nil
		case TaskMap:
			err = w.runMap(task.Task, task.Attempt)
		case TaskReduce:
			err = w.runReduce(task.Task, task.Attempt, task.Maps)
		default:
			err = fmt.Errorf("distrun: unknown task kind %q", task.Kind)
		}
		if err != nil {
			return err
		}
	}
}

// taskFaultCtrs returns the fault-counter accumulator shared by every
// attempt of one task this process runs (mirroring localrun's runTask,
// where fault counters outlive failed attempts).
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

// reportFailed sends a task-failure note; delivery is best effort (a fenced
// session re-registers and the coordinator re-queues by timeout anyway).
// lost names the map output a reduce could not fetch, nil for a failure of
// the attempt's own. A dead worker sends nothing and returns its cause.
func (w *worker) reportFailed(kind string, task, attempt int, cause error, lost *mapLoc) error {
	if err := context.Cause(w.ctx); err != nil {
		return err
	}
	var resp sessionResp
	_ = call(w.coord, MethodTaskFailed, &taskFailedReq{
		Session: w.session.Load(),
		Kind:    kind,
		Task:    task,
		Attempt: attempt,
		Err:     cause.Error(),
		Lost:    lost,
	}, &resp)
	return nil
}

// runMap executes one map attempt and commits it. A losing commit (a rival
// attempt won) withdraws this attempt's output from the shuffle server.
func (w *worker) runMap(idx, attempt int) error {
	if err := w.checkpoint(); err != nil { // pre-task
		return err
	}
	faultCtrs := w.taskFaultCtrs(TaskMap, idx)
	ctrs, err := w.runner.RunMap(idx, attempt, w.server, w.plan, faultCtrs)
	if err != nil {
		faultCtrs.IncrFault(mapreduce.CtrMapAttemptsFailed, 1)
		w.server.Unregister(idx) // partial registrations must not be fetchable
		return w.reportFailed(TaskMap, idx, attempt, err, nil)
	}
	ctrs.Merge(faultCtrs)
	if err := w.checkpoint(); err != nil { // pre-commit
		return err
	}

	req := &commitMapReq{Task: idx, Attempt: attempt, Counters: ctrs.Snapshot()}
	resp, err := w.commit(MethodCommitMap, req, &req.Session)
	if err != nil {
		return err
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

// runReduce runs one reduce attempt through localrun's copy phase — fetching
// each map's partition from the worker that serves it — and commits counters
// + digest. A map whose fetch ran out of retries (its worker died, or every
// fetch attempt failed) is reported as lost, so the coordinator charges and
// re-runs that map, and the reduce attempt is abandoned for a later retry.
func (w *worker) runReduce(r, attempt int, maps []mapLoc) error {
	if err := w.checkpoint(); err != nil { // pre-task
		return err
	}
	faultCtrs := w.taskFaultCtrs(TaskReduce, r)
	peers := make([]string, len(maps))
	for i, loc := range maps {
		peers[i] = loc.Addr
	}
	// A kill at the mid-shuffle checkpoint ends the copy phase with w.ctx.
	ctrs, err := w.runner.RunReduceFrom(w.ctx, r, attempt, peers, w.plan, faultCtrs, func() { w.checkpoint() })
	if err != nil {
		faultCtrs.IncrFault(mapreduce.CtrReduceAttemptsFailed, 1)
		var lost *mapLoc
		var fe *localrun.FetchError
		if errors.As(err, &fe) {
			lost, err = &maps[fe.Map], fe.Err
		}
		return w.reportFailed(TaskReduce, r, attempt, err, lost)
	}
	ctrs.Merge(faultCtrs)
	if err := w.checkpoint(); err != nil { // pre-commit
		return err
	}

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
	_, err = w.commit(MethodCommitReduce, req, &req.Session)
	return err
}

// commit sends a task commit under the worker's current session, which it
// stamps into *session (req's Session field) before each call; a fenced
// session re-registers and the commit is sent again under the new one.
func (w *worker) commit(method string, req any, session *int64) (commitResp, error) {
	for {
		*session = w.session.Load()
		var resp commitResp
		if err := call(w.coord, method, req, &resp); err != nil {
			return resp, err
		}
		if !resp.Fenced {
			return resp, nil
		}
		if _, err := w.register(); err != nil {
			return resp, err
		}
	}
}
