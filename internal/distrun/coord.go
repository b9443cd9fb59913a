package distrun

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mrmicro/internal/hadooprpc"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

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

	// Workers sums what the worker processes reaped before Run returned cost.
	Workers WorkerUsage
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
	lostPaid bool // its death was charged to its slot (Blame.Lost), once
}

// lostReport is a reduce's report that it could not fetch a map's output
// from a host that still looked alive. The map re-runs at once; whom the
// loss is charged to waits for the host's fate (settleLocked).
type lostReport struct {
	task  mapreduce.TaskID // the reduce that reported
	host  int64            // the session that served the output
	at    time.Time
	cause error
}

// Coordinator owns the job: task tables, worker sessions, the WAL, and the
// RPC server workers talk to.
type Coordinator struct {
	cfg   microbench.Config
	opts  Options
	srv   *hadooprpc.Server
	log   *wal
	blame *localrun.Blame // charges every reported failure (localrun's rule)

	// job ends when every reduce commits (cause errJobDone), a task fails
	// the job, or the coordinator is killed or stopped; its cause is the
	// job's verdict.
	job        context.Context
	end        context.CancelCauseFunc
	closing    sync.Once      // the server and the WAL close once, whoever ends the job
	monitoring sync.WaitGroup // the monitor goroutine, which closing waits out

	mu       sync.Mutex
	sessions map[int64]*workerState
	nextSess int64
	maps     []taskState
	reduces  []taskState
	version  int64 // map announcement version counter
	mapsDone int
	redsDone int
	start    time.Time
	graceEnd time.Time // restarted coordinator: unlocated-map requeue deadline

	// held are lost-output reports whose charge awaits their host's fate.
	// slots holds every worker slot that registered, true once it is
	// excluded for deaths that lost map output the bound's worth of times.
	held  []lostReport
	slots map[int]bool

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
		blame:    localrun.NewBlame(cfg.Faults),
		sessions: make(map[int64]*workerState),
		slots:    make(map[int]bool),
		// Sessions count up from the start time in nanoseconds, so a
		// successor on the same address never reissues a session its
		// predecessor handed out: a worker still holding one is fenced and
		// re-registers, instead of being taken for the successor's worker of
		// the same number (and committing maps at that worker's address).
		nextSess: time.Now().UnixNano(),
		maps:     make([]taskState, numMaps),
		reduces:  make([]taskState, cfg.NumReduces),
		start:    time.Now(),
	}
	c.job, c.end = context.WithCancelCause(context.Background())

	var entries []walEntry
	if c.log, entries, err = openWAL(opts.WALPath); err != nil {
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
	c.monitoring.Add(1)
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

// errJobDone is the cause that ends a job every reduce of which committed.
var errJobDone = errors.New("distrun: job done")

// Kill shuts the coordinator down abruptly — no graceful handoff, exactly
// what a crashed process looks like to its workers. The WAL stays on disk for
// a successor.
func (c *Coordinator) Kill() { c.kill(errors.New("distrun: coordinator killed")) }

// kill is Kill with cause as the verdict. The server is severed *before* the
// job ends: an in-flight gettask must die with a connection error, not answer
// "exit" (workers told to exit would never find the successor).
func (c *Coordinator) kill(cause error) {
	c.srv.Abort()
	c.shutdown(cause)
}

// Stop is the happy-path teardown once Wait has returned; on an unfinished
// job it behaves like Kill.
func (c *Coordinator) Stop() { c.shutdown(errors.New("distrun: coordinator stopped")) }

func (c *Coordinator) shutdown(cause error) {
	c.end(cause)
	c.closing.Do(func() {
		c.srv.Close()
		c.log.close()
		c.monitoring.Wait()
	})
}

// Wait blocks until the job completes (or fails) and returns its result.
func (c *Coordinator) Wait() (*Result, error) {
	<-c.job.Done()
	if err := context.Cause(c.job); err != errJobDone {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
// re-queues WAL-committed maps nobody re-announced within the grace period,
// until the job ends.
func (c *Coordinator) monitor() {
	defer c.monitoring.Done()
	tick := time.NewTicker(c.opts.heartbeatEvery())
	defer tick.Stop()
	for {
		select {
		case <-c.job.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			timeout := c.opts.workerTimeout()
			for _, w := range c.sessions {
				if !w.dead && now.Sub(w.lastBeat) > timeout {
					c.markDeadLocked(w)
				}
			}
			c.settleLocked()
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
	t.committed, t.located, t.session, t.addr = false, false, 0, ""
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
	if _, known := c.slots[w.index]; !known {
		c.slots[w.index] = false
	}
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
		t.located, t.session, t.addr = true, w.session, w.addr
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

// sessionLocked resolves a live session and stamps its heartbeat: any call
// is a sign of life. It returns nil if the session is unknown or fenced.
func (c *Coordinator) sessionLocked(id int64) *workerState {
	w := c.sessions[id]
	if w == nil || w.dead {
		return nil
	}
	w.lastBeat = time.Now()
	return w
}

func (c *Coordinator) handleHeartbeat(req *sessionReq) (*sessionResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &sessionResp{Fenced: c.sessionLocked(req.Session) == nil}, nil
}

func (c *Coordinator) handleGetTask(req *sessionReq) (*taskResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &taskResp{sessionResp: sessionResp{Fenced: true}, Kind: TaskWait}, nil
	}
	if err := context.Cause(c.job); err == errJobDone {
		return &taskResp{Kind: TaskExit}, nil
	} else if err != nil {
		return &taskResp{Kind: TaskExit, Err: err.Error()}, nil
	}
	if c.slots[w.index] {
		return &taskResp{Kind: TaskWait}, nil // an excluded slot
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
	if req.Task < 0 || req.Task >= len(c.maps) {
		return nil, fmt.Errorf("distrun: map %d out of range", req.Task)
	}
	t := &c.maps[req.Task]
	if t.committed && t.located {
		return &commitResp{Win: false}, nil // a rival attempt already won
	}
	// A map committed but located nowhere is a restarted coordinator's
	// recovered commit, most often this very attempt's, whose reply died
	// with the predecessor: map output is deterministic, so these bytes
	// serve the logged version instead of the map re-running.
	if !t.committed {
		if len(t.running) > 1 {
			c.specWins++
		}
		c.version++
		if err := c.log.append(walEntry{Type: "map", Task: req.Task, Version: c.version, Counters: req.Counters}); err != nil {
			c.end(fmt.Errorf("distrun: wal: %w", err))
			return nil, err
		}
		t.committed, t.version, t.counters = true, c.version, req.Counters
		c.mapsDone++
	}
	t.located, t.session, t.addr, t.running = true, w.session, w.addr, nil
	return &commitResp{Win: true, Version: t.version}, nil
}

func (c *Coordinator) handleCommitReduce(req *commitReduceReq) (*commitResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.sessionLocked(req.Session)
	if w == nil {
		return &commitResp{sessionResp: sessionResp{Fenced: true}}, nil
	}
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
		c.end(fmt.Errorf("distrun: wal: %w", err))
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

// handleTaskFailed charges a failed attempt by localrun's Blame rule, to the
// task or to the map a reduce could not fetch, re-queued under the same
// lock. A report against a version already superseded (by a fence or an
// earlier report) charges nobody: one lost output is charged once. A map
// output lost with its host is not the map's fault, so whom a fetch failure
// is charged to waits for the host's fate: a host past its heartbeat timeout
// is declared dead on the spot, and any other report is held until the
// monitor settles it (settleLocked).
func (c *Coordinator) handleTaskFailed(req *taskFailedReq) (*sessionResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sessionLocked(req.Session) == nil {
		return &sessionResp{Fenced: true}, nil
	}
	tasks, task := c.maps, mapreduce.TaskID{Type: mapreduce.TaskMap, Index: req.Task}
	if req.Kind == TaskReduce {
		tasks, task.Type = c.reduces, mapreduce.TaskReduce
	}
	if req.Task < 0 || req.Task >= len(tasks) {
		return nil, fmt.Errorf("distrun: %s %d out of range", req.Kind, req.Task)
	}
	t := &tasks[req.Task]
	t.dropAttempt(req.Session)
	cause := errors.New(req.Err)
	if lost := req.Lost; lost != nil {
		if lost.Map < 0 || lost.Map >= len(c.maps) {
			return nil, fmt.Errorf("distrun: map %d out of range", lost.Map)
		}
		m := &c.maps[lost.Map]
		if !m.committed || !m.located || m.version != lost.Version {
			return &sessionResp{}, nil // superseded: already re-queued
		}
		cause = &localrun.FetchError{Map: lost.Map, Reduce: req.Task, Peer: lost.Addr, Err: cause}
		host := c.sessions[m.session] // located output has a registered host
		c.requeueMapLocked(lost.Map)
		if time.Since(host.lastBeat) > c.opts.workerTimeout() {
			c.markDeadLocked(host) // re-queues the rest the host served
			c.chargeLostLocked(host, cause)
			return &sessionResp{}, nil
		}
		c.held = append(c.held, lostReport{task: task, host: host.session, at: time.Now(), cause: cause})
		return &sessionResp{}, nil
	} else if t.committed {
		return &sessionResp{}, nil // a rival attempt won anyway
	}
	if err := c.blame.Charge(task, cause); err != nil {
		c.end(err)
	}
	return &sessionResp{}, nil
}

// settleLocked charges each held lost-output report once its host's fate is
// known. A host declared dead took the output with it: the map's re-run is
// KILLED, and the death is charged to the host's worker slot. A host that
// called in after the report is alive and could not serve the map: the
// re-run is FAILED, and the map is charged.
func (c *Coordinator) settleLocked() {
	held := c.held[:0]
	for _, h := range c.held {
		switch host := c.sessions[h.host]; {
		case host.dead:
			c.chargeLostLocked(host, h.cause)
		case host.lastBeat.After(h.at):
			if err := c.blame.Charge(h.task, h.cause); err != nil {
				c.end(err)
			}
		default:
			held = append(held, h)
		}
	}
	c.held = held
}

// chargeLostLocked charges host's death to its worker slot, once per
// session however many outputs it lost. A slot charged the bound's worth of
// times is excluded: it is given no more tasks, as Hadoop stops assigning a
// job's tasks to a TaskTracker that failed too often for it. The job fails
// once every slot that registered is excluded, so a job loses output to at
// most (slots × bound) deaths, and ends while a healthy slot is left only
// by finishing.
func (c *Coordinator) chargeLostLocked(host *workerState, cause error) {
	if host.lostPaid {
		return
	}
	host.lostPaid = true
	err := c.blame.Lost(host.index, cause)
	if err == nil {
		return
	}
	c.slots[host.index] = true
	for _, excluded := range c.slots {
		if !excluded {
			return
		}
	}
	c.end(err)
}

func (c *Coordinator) maybeFinish() {
	if c.redsDone == len(c.reduces) {
		c.end(errJobDone)
	}
}
