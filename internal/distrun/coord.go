package distrun

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/hadooprpc"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// ErrAttemptsExhausted marks a job failure caused by a task legally running
// out of its attempt budget under fault injection — the recovery machinery
// working as specified rather than a runtime bug. Differential checkers
// (mrcheck) skip such runs instead of flagging them.
var ErrAttemptsExhausted = errors.New("distrun: task attempts exhausted")

// Options tunes the distributed runtime.
type Options struct {
	// Workers is how many worker processes Run spawns (default 2).
	Workers int

	// Addr is the coordinator's listen address (default "127.0.0.1:0").
	// Crash/restart tests pass the dead coordinator's concrete address so
	// workers' retrying clients find the successor.
	Addr string

	// WALPath enables the write-ahead task log; empty disables it (a killed
	// coordinator then cannot be resumed).
	WALPath string

	// Digest wraps the job's output on every worker with a per-reduce
	// output digest (see digest.go), reported in reduce commits — the
	// cross-process stand-in for comparing output bytes.
	Digest bool

	// Respawn makes the worker pool restart a worker process that dies
	// abnormally (killed by fault injection or the crash harness).
	Respawn bool

	// HeartbeatEvery is the worker heartbeat period (default 25ms).
	// WorkerTimeout is how long a silent worker stays alive before being
	// declared dead and fenced (default 10x the heartbeat).
	HeartbeatEvery time.Duration
	WorkerTimeout  time.Duration

	// SpeculativeAfter enables straggler detection: a task attempt still
	// running after this long gets one speculative duplicate on another
	// worker, first commit wins. Zero disables speculation.
	SpeculativeAfter time.Duration

	// RecoveryGrace is how long a restarted coordinator waits for workers
	// to re-register holding WAL-committed map outputs before re-queueing
	// the unlocated ones (default 500ms).
	RecoveryGrace time.Duration
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o *Options) addr() string {
	if o.Addr != "" {
		return o.Addr
	}
	return "127.0.0.1:0"
}

func (o *Options) heartbeatEvery() time.Duration {
	if o.HeartbeatEvery > 0 {
		return o.HeartbeatEvery
	}
	return 25 * time.Millisecond
}

func (o *Options) workerTimeout() time.Duration {
	if o.WorkerTimeout > 0 {
		return o.WorkerTimeout
	}
	return 10 * o.heartbeatEvery()
}

func (o *Options) recoveryGrace() time.Duration {
	if o.RecoveryGrace > 0 {
		return o.RecoveryGrace
	}
	return 500 * time.Millisecond
}

// taskAttempts bounds per-task execution attempts counted from explicit
// failure reports: the fault plan's bound, 4 without a plan.
func taskAttempts(plan *faultinject.Plan) int {
	if plan != nil {
		return plan.TaskAttempts()
	}
	return 4
}

// Result summarizes a completed distributed job, mirroring localrun.Result
// plus the recovery bookkeeping the crash tests assert on.
type Result struct {
	Counters   *mapreduce.Counters
	NumMaps    int
	NumReduces int
	Elapsed    time.Duration

	// PerReduceRecords is each reduce task's input record count, and
	// PerReduceDigests each one's output digest (zero unless Options.Digest).
	// JobDigest folds the per-reduce digests in task order.
	PerReduceRecords []int64
	PerReduceDigests []uint64
	JobDigest        uint64

	// RecoveredMaps / RecoveredReduces count tasks whose commit was replayed
	// from the WAL by a restarted coordinator instead of re-executed.
	// RequeuedMaps counts committed maps whose bytes were lost (worker died,
	// fetch failures, unlocated after recovery) and re-ran. SpeculativeWins
	// counts tasks finished by an attempt that had a live duplicate.
	RecoveredMaps    int
	RecoveredReduces int
	RequeuedMaps     int
	SpeculativeWins  int
}

// attemptRef is one running task attempt.
type attemptRef struct {
	session int64
	attempt int
	started time.Time
}

// taskState is the coordinator-side record of one map or reduce task.
type taskState struct {
	committed bool
	located   bool  // maps: committed bytes reachable at (session, addr)
	session   int64 // maps: worker serving the committed output
	addr      string
	version   int64 // maps: announcement version of the committed output
	counters  map[string]map[string]int64
	digest    uint64 // reduces
	records   int64  // reduces
	attempts  int    // attempt numbers issued
	failures  int    // explicit failure reports (bounds re-execution)
	running   []attemptRef
}

func (t *taskState) dropAttempt(session int64) {
	kept := t.running[:0]
	for _, a := range t.running {
		if a.session != session {
			kept = append(kept, a)
		}
	}
	t.running = kept
}

// workerState is one registered worker session.
type workerState struct {
	session  int64
	index    int
	epoch    int
	addr     string
	lastBeat time.Time
	dead     bool
}

// Coordinator owns the job: task tables, worker sessions, the WAL, and the
// RPC server workers talk to.
type Coordinator struct {
	cfg  microbench.Config
	opts Options
	srv  *hadooprpc.Server
	log  *wal

	mu       sync.Mutex
	sessions map[int64]*workerState
	nextSess int64
	maps     []taskState
	reduces  []taskState
	version  int64 // map announcement version counter
	mapsDone int
	redsDone int
	failed   error
	finished bool
	stopped  bool
	done     chan struct{}
	stop     chan struct{}
	start    time.Time
	graceEnd time.Time // restarted coordinator: unlocated-map requeue deadline

	recoveredMaps    int
	recoveredReduces int
	requeuedMaps     int
	specWins         int
}

// NewCoordinator starts a coordinator for cfg. If opts.WALPath names an
// existing log, committed work recorded there is recovered: reduces are
// final, maps await re-location by re-registering workers.
func NewCoordinator(cfg microbench.Config, opts *Options) (*Coordinator, error) {
	if opts == nil {
		opts = &Options{}
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.NumReduces == 0 {
		return nil, fmt.Errorf("distrun: jobs need a reduce phase")
	}
	// Build the job's task environment here, as every worker will: its map
	// count sizes the task table, and a conf value the executor rejects
	// fails the job now instead of inside each spawned worker.
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := localrun.NewTaskRunner(job)
	if err != nil {
		return nil, err
	}
	numMaps := runner.NumMaps()
	c := &Coordinator{
		cfg:      cfg,
		opts:     *opts,
		sessions: make(map[int64]*workerState),
		maps:     make([]taskState, numMaps),
		reduces:  make([]taskState, cfg.NumReduces),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		start:    time.Now(),
	}

	entries, err := readWAL(opts.WALPath)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		switch e.Type {
		case "map":
			if e.Task < 0 || e.Task >= len(c.maps) {
				continue
			}
			t := &c.maps[e.Task]
			if !t.committed {
				c.mapsDone++
				c.recoveredMaps++
			}
			t.committed = true
			t.located = false // no worker known to hold the bytes yet
			t.version = e.Version
			t.counters = e.Counters
			if e.Version > c.version {
				c.version = e.Version
			}
		case "reduce":
			if e.Task < 0 || e.Task >= len(c.reduces) {
				continue
			}
			t := &c.reduces[e.Task]
			if !t.committed {
				c.redsDone++
				c.recoveredReduces++
			}
			t.committed = true
			t.counters = e.Counters
			t.digest = e.Digest
			t.records = e.Records
		}
	}
	if c.recoveredMaps > 0 {
		c.graceEnd = time.Now().Add(opts.recoveryGrace())
	}

	c.log, err = openWAL(opts.WALPath)
	if err != nil {
		return nil, err
	}
	srv, err := hadooprpc.NewServer(opts.addr(), Protocol)
	if err != nil {
		c.log.close()
		return nil, err
	}
	c.srv = srv
	srv.Register(MethodRegister, handler(c.handleRegister))
	srv.Register(MethodHeartbeat, handler(c.handleHeartbeat))
	srv.Register(MethodGetTask, handler(c.handleGetTask))
	srv.Register(MethodCommitMap, handler(c.handleCommitMap))
	srv.Register(MethodCommitReduce, handler(c.handleCommitReduce))
	srv.Register(MethodTaskFailed, handler(c.handleTaskFailed))
	srv.Register(MethodFetchFailed, handler(c.handleFetchFailed))
	go c.monitor()
	c.mu.Lock()
	c.maybeFinish() // a fully-committed WAL finishes the job outright
	c.mu.Unlock()
	return c, nil
}

// Addr returns the coordinator's dialable address.
func (c *Coordinator) Addr() string { return c.srv.Addr() }

// Progress is a point-in-time snapshot for test harnesses targeting
// specific job phases.
type Progress struct {
	MapsCommitted    int
	ReducesCommitted int
	MapsRunning      int
	ReducesRunning   int
	WorkersLive      int
}

// Progress reports the job's current phase state.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{MapsCommitted: c.mapsDone, ReducesCommitted: c.redsDone}
	for i := range c.maps {
		p.MapsRunning += len(c.maps[i].running)
	}
	for i := range c.reduces {
		p.ReducesRunning += len(c.reduces[i].running)
	}
	for _, w := range c.sessions {
		if !w.dead {
			p.WorkersLive++
		}
	}
	return p
}

// Kill shuts the coordinator down abruptly — no graceful handoff, exactly
// what a crashed process looks like to its workers. The server is severed
// *before* any state flips: an in-flight gettask must die with a connection
// error, not answer "exit" (workers that were told to exit would never find
// the successor). The WAL stays on disk for that successor.
func (c *Coordinator) Kill() {
	c.srv.Abort()
	c.shutdown("killed")
}

// Stop is the happy-path teardown once Wait has returned; on an unfinished
// job it behaves like Kill.
func (c *Coordinator) Stop() { c.shutdown("stopped") }

func (c *Coordinator) shutdown(reason string) {
	c.mu.Lock()
	if !c.finished {
		c.finished = true
		if c.failed == nil {
			c.failed = fmt.Errorf("distrun: coordinator %s", reason)
		}
		close(c.done)
	}
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.srv.Close()
	c.log.close()
}

// Wait blocks until the job completes (or fails) and returns its result.
func (c *Coordinator) Wait() (*Result, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	res := &Result{
		Counters:         mapreduce.NewCounters(),
		NumMaps:          len(c.maps),
		NumReduces:       len(c.reduces),
		Elapsed:          time.Since(c.start),
		PerReduceRecords: make([]int64, len(c.reduces)),
		PerReduceDigests: make([]uint64, len(c.reduces)),
		RecoveredMaps:    c.recoveredMaps,
		RecoveredReduces: c.recoveredReduces,
		RequeuedMaps:     c.requeuedMaps,
		SpeculativeWins:  c.specWins,
	}
	for i := range c.maps {
		res.Counters.AddSnapshot(c.maps[i].counters)
	}
	for r := range c.reduces {
		t := &c.reduces[r]
		res.Counters.AddSnapshot(t.counters)
		res.PerReduceRecords[r] = t.records
		res.PerReduceDigests[r] = t.digest
	}
	res.JobDigest = foldDigests(res.PerReduceDigests)
	return res, nil
}

// monitor declares silent workers dead and, on a restarted coordinator,
// re-queues WAL-committed maps nobody re-announced within the grace period.
func (c *Coordinator) monitor() {
	tick := time.NewTicker(c.opts.heartbeatEvery())
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			timeout := c.opts.workerTimeout()
			for _, w := range c.sessions {
				if !w.dead && now.Sub(w.lastBeat) > timeout {
					c.markDeadLocked(w)
				}
			}
			if !c.graceEnd.IsZero() && now.After(c.graceEnd) {
				c.graceEnd = time.Time{}
				for i := range c.maps {
					t := &c.maps[i]
					if t.committed && !t.located {
						c.requeueMapLocked(i)
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// markDeadLocked fences a worker: its running attempts are dropped and every
// committed map output it was serving is re-queued — in Hadoop, map output
// dies with its node.
func (c *Coordinator) markDeadLocked(w *workerState) {
	w.dead = true
	for i := range c.maps {
		c.maps[i].dropAttempt(w.session)
		if c.maps[i].committed && c.maps[i].located && c.maps[i].session == w.session {
			c.requeueMapLocked(i)
		}
	}
	for i := range c.reduces {
		c.reduces[i].dropAttempt(w.session)
	}
}

// requeueMapLocked returns a committed map to the pending pool. Its version
// and counters are retained: a re-registering worker still holding this
// exact version re-adopts the commit (the bytes and counters of a map task
// are deterministic, so retained state is byte-equivalent to a re-run's).
func (c *Coordinator) requeueMapLocked(i int) {
	t := &c.maps[i]
	if !t.committed {
		return
	}
	t.committed = false
	t.located = false
	t.session = 0
	t.addr = ""
	c.mapsDone--
	c.requeuedMaps++
}

func (c *Coordinator) handleRegister(req *registerReq) (*registerResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSess++
	w := &workerState{
		session:  c.nextSess,
		index:    req.Index,
		epoch:    req.Epoch,
		addr:     req.Addr,
		lastBeat: time.Now(),
	}
	c.sessions[w.session] = w
	// Re-adopt any committed map output the worker still serves at the
	// committed version: this is how a restarted coordinator re-locates
	// WAL-committed maps, and how a fenced-but-alive (partitioned) worker's
	// outputs come back without re-running the tasks.
	for _, h := range req.Held {
		if h.Map < 0 || h.Map >= len(c.maps) {
			continue
		}
		t := &c.maps[h.Map]
		if t.version != h.Version {
			continue // superseded bytes; the worker should discard them
		}
		if t.committed && t.located {
			continue // someone else already serves this version
		}
		if !t.committed {
			t.committed = true
			c.mapsDone++
			if c.requeuedMaps > 0 {
				c.requeuedMaps--
			}
		}
		t.located = true
		t.session = w.session
		t.addr = w.addr
	}
	c.maybeFinish()
	return &registerResp{
		Session:        w.session,
		Repro:          c.cfg.ReproFlags(),
		Digest:         c.opts.Digest,
		Plan:           c.cfg.Faults,
		HeartbeatEvery: int64(c.opts.heartbeatEvery()),
	}, nil
}

// sessionLocked resolves a live session, nil if unknown or fenced.
func (c *Coordinator) sessionLocked(id int64) *workerState {
	w := c.sessions[id]
	if w == nil || w.dead {
		return nil
	}
	return w
}

func (c *Coordinator) handleHeartbeat(req *sessionReq) (*sessionResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &sessionResp{Fenced: true}, nil
	}
	w.lastBeat = time.Now()
	return &sessionResp{}, nil
}

func (c *Coordinator) handleGetTask(req *sessionReq) (*taskResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &taskResp{sessionResp: sessionResp{Fenced: true}, Kind: TaskWait}, nil
	}
	w.lastBeat = time.Now()
	if c.failed != nil {
		return &taskResp{Kind: TaskExit, Err: c.failed.Error()}, nil
	}
	if c.finished {
		return &taskResp{Kind: TaskExit}, nil
	}

	// Pending maps first.
	for i := range c.maps {
		t := &c.maps[i]
		if !t.committed && len(t.running) == 0 {
			return c.assignLocked(t, TaskMap, i, w), nil
		}
	}
	if c.mapsLocatedLocked() {
		for i := range c.reduces {
			t := &c.reduces[i]
			if !t.committed && len(t.running) == 0 {
				resp := c.assignLocked(t, TaskReduce, i, w)
				resp.Maps = c.mapLocsLocked()
				return resp, nil
			}
		}
	}
	// Speculation: duplicate the longest-running straggler on this worker.
	if after := c.opts.SpeculativeAfter; after > 0 {
		if resp := c.speculateLocked(c.maps, TaskMap, w, after); resp != nil {
			return resp, nil
		}
		if c.mapsLocatedLocked() {
			if resp := c.speculateLocked(c.reduces, TaskReduce, w, after); resp != nil {
				resp.Maps = c.mapLocsLocked()
				return resp, nil
			}
		}
	}
	return &taskResp{Kind: TaskWait}, nil
}

func (c *Coordinator) assignLocked(t *taskState, kind string, idx int, w *workerState) *taskResp {
	attempt := t.attempts
	t.attempts++
	t.running = append(t.running, attemptRef{session: w.session, attempt: attempt, started: time.Now()})
	return &taskResp{Kind: kind, Task: idx, Attempt: attempt}
}

// speculateLocked finds a task with exactly one attempt running longer than
// `after` on a *different* worker, and schedules the duplicate here.
func (c *Coordinator) speculateLocked(tasks []taskState, kind string, w *workerState, after time.Duration) *taskResp {
	now := time.Now()
	for i := range tasks {
		t := &tasks[i]
		if t.committed || len(t.running) != 1 {
			continue
		}
		a := t.running[0]
		if a.session == w.session || now.Sub(a.started) < after {
			continue
		}
		return c.assignLocked(t, kind, i, w)
	}
	return nil
}

func (c *Coordinator) mapsLocatedLocked() bool {
	for i := range c.maps {
		if !c.maps[i].committed || !c.maps[i].located {
			return false
		}
	}
	return true
}

func (c *Coordinator) mapLocsLocked() []mapLoc {
	locs := make([]mapLoc, len(c.maps))
	for i := range c.maps {
		locs[i] = mapLoc{Map: i, Version: c.maps[i].version, Addr: c.maps[i].addr}
	}
	return locs
}

func (c *Coordinator) handleCommitMap(req *commitMapReq) (*commitResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &commitResp{sessionResp: sessionResp{Fenced: true}}, nil
	}
	w.lastBeat = time.Now()
	if req.Task < 0 || req.Task >= len(c.maps) {
		return nil, fmt.Errorf("distrun: map %d out of range", req.Task)
	}
	t := &c.maps[req.Task]
	if t.committed {
		return &commitResp{Win: false}, nil // a rival attempt already won
	}
	if len(t.running) > 1 {
		c.specWins++
	}
	c.version++
	if err := c.log.append(walEntry{Type: "map", Task: req.Task, Version: c.version, Counters: req.Counters}); err != nil {
		c.failLocked(fmt.Errorf("distrun: wal: %w", err))
		return nil, err
	}
	t.committed = true
	t.located = true
	t.session = w.session
	t.addr = w.addr
	t.version = c.version
	t.counters = req.Counters
	t.running = nil
	c.mapsDone++
	return &commitResp{Win: true, Version: t.version}, nil
}

func (c *Coordinator) handleCommitReduce(req *commitReduceReq) (*commitResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &commitResp{sessionResp: sessionResp{Fenced: true}}, nil
	}
	w.lastBeat = time.Now()
	if req.Task < 0 || req.Task >= len(c.reduces) {
		return nil, fmt.Errorf("distrun: reduce %d out of range", req.Task)
	}
	t := &c.reduces[req.Task]
	if t.committed {
		return &commitResp{Win: false}, nil
	}
	if len(t.running) > 1 {
		c.specWins++
	}
	if err := c.log.append(walEntry{Type: "reduce", Task: req.Task, Counters: req.Counters, Digest: req.Digest, Records: req.Records}); err != nil {
		c.failLocked(fmt.Errorf("distrun: wal: %w", err))
		return nil, err
	}
	t.committed = true
	t.counters = req.Counters
	t.digest = req.Digest
	t.records = req.Records
	t.running = nil
	c.redsDone++
	c.maybeFinish()
	return &commitResp{Win: true}, nil
}

func (c *Coordinator) handleTaskFailed(req *taskFailedReq) (*sessionResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &sessionResp{Fenced: true}, nil
	}
	w.lastBeat = time.Now()
	tasks := c.maps
	if req.Kind == TaskReduce {
		tasks = c.reduces
	}
	if req.Task < 0 || req.Task >= len(tasks) {
		return nil, fmt.Errorf("distrun: %s %d out of range", req.Kind, req.Task)
	}
	t := &tasks[req.Task]
	t.dropAttempt(req.Session)
	if t.committed {
		return &sessionResp{}, nil // a rival attempt won anyway
	}
	if req.Fetch {
		return &sessionResp{}, nil // blameless: the lost map was re-queued, not this task
	}
	t.failures++
	if bound := taskAttempts(c.cfg.Faults); t.failures >= bound {
		c.failLocked(fmt.Errorf("%w: %s %d failed %d times, last: %s",
			ErrAttemptsExhausted, req.Kind, req.Task, t.failures, req.Err))
	}
	return &sessionResp{}, nil
}

func (c *Coordinator) handleFetchFailed(req *fetchFailedReq) (*sessionResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &sessionResp{Fenced: true}, nil
	}
	w.lastBeat = time.Now()
	if req.Map < 0 || req.Map >= len(c.maps) {
		return nil, fmt.Errorf("distrun: map %d out of range", req.Map)
	}
	t := &c.maps[req.Map]
	// Only the reported version re-queues: a stale report against an output
	// that already re-ran must not kill the fresh copy.
	if t.committed && t.located && t.version == req.Version {
		c.requeueMapLocked(req.Map)
	}
	return &sessionResp{}, nil
}

func (c *Coordinator) failLocked(err error) {
	if c.failed == nil {
		c.failed = err
	}
	if !c.finished {
		c.finished = true
		close(c.done)
	}
}

func (c *Coordinator) maybeFinish() {
	if !c.finished && c.redsDone == len(c.reduces) {
		c.finished = true
		close(c.done)
	}
}
