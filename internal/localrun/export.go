package localrun

// This file is localrun's task-level surface for the distributed runtime
// (internal/distrun): worker processes execute the exact same task bodies the
// in-process executor runs — same sort/spill/merge machinery, same TCP
// shuffle data plane, same copy phase (streamShuffle, fetching from whichever
// worker serves each map) — just driven by a remote coordinator instead of
// the in-process scheduler. Keeping one implementation is what lets distrun
// assert byte-identical output against an in-process run of the same config.

import (
	"context"
	"fmt"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
)

// ShuffleServer is the exported face of the TCP map-output server: each
// distrun worker runs one as its data plane, serving the outputs of every
// map task it has committed.
type ShuffleServer = shuffleServer

// NewShuffleServer starts a map-output server on an ephemeral loopback port
// with the in-memory segment store (writev serving).
func NewShuffleServer() (*ShuffleServer, error) { return newShuffleServer(false, "") }

// NewDiskShuffleServer starts a map-output server whose segments land in a
// spill file in the process temp dir and are served zero-copy via sendfile
// where the platform allows (see sendSegmentFile).
func NewDiskShuffleServer() (*ShuffleServer, error) { return newShuffleServer(true, "") }

// Unregister withdraws every partition registered for mapIdx — the losing
// side of a speculative race discards its output so reducers can only ever
// fetch the committed attempt's bytes.
func (s *shuffleServer) Unregister(mapIdx int) { s.store.dropMap(mapIdx) }

// FetchStats tallies the recovery events of segment fetches.
type FetchStats struct {
	Failures int64 // fetch attempts that failed (dropped, truncated, corrupt)
	Retries  int64 // attempts beyond the first
	Slow     int64 // injected slow-peer fetches
}

func (a *FetchStats) add(b FetchStats) {
	a.Failures += b.Failures
	a.Retries += b.Retries
	a.Slow += b.Slow
}

// addTo folds the tally into a reduce task's fault counters, skipping zero
// increments so clean runs don't grow an all-zero FaultCounter group in
// their counter dump.
func (a FetchStats) addTo(faultCtrs *mapreduce.Counters) {
	if a.Failures > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchFailures, a.Failures)
	}
	if a.Retries > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchRetries, a.Retries)
	}
	if a.Slow > 0 {
		faultCtrs.IncrFault(mapreduce.CtrShuffleFetchesSlow, a.Slow)
	}
}

// FetchMapOutput fetches one partition over a connection of its own: the
// copy phase's fetcher run over a single map. wireLen is the payload size of
// the winning attempt; st tallies this fetch alone.
func FetchMapOutput(addr string, mapIdx, reduce int, compressed bool, plan *faultinject.Plan, bo faultinject.Backoff) (seg *kvbuf.Segment, wireLen int64, st FetchStats, err error) {
	f := &segmentFetcher{addr: addr, reduce: reduce, compressed: compressed, plan: plan, bo: bo, st: &st}
	defer f.closeConn()
	err = f.run([]int{mapIdx}, func(_ int, s *kvbuf.Segment, n int64) { seg, wireLen = s, n })
	return seg, wireLen, st, err
}

// NewTaskRunner builds the task environment of a job with a reduce phase —
// distrun has no distributed story for map-only jobs — from its Conf alone:
// the entry point a distrun worker drives as the coordinator assigns work,
// and what the coordinator builds first so that a malformed conf fails the
// job before a worker is spawned.
func NewTaskRunner(job *mapreduce.Job) (*TaskRunner, error) {
	tr, err := newTaskRunner(job, &Options{})
	if err != nil {
		return nil, err
	}
	if tr.numReduces == 0 {
		return nil, &mapreduce.JobError{Msg: "localrun: TaskRunner requires a reduce phase"}
	}
	return tr, nil
}

// NumMaps returns the job's split count.
func (tr *TaskRunner) NumMaps() int { return len(tr.splits) }

// NumReduces returns the job's reduce count.
func (tr *TaskRunner) NumReduces() int { return tr.numReduces }

// Compressed reports whether map outputs travel compressed, which fetchers
// must know to validate payloads.
func (tr *TaskRunner) Compressed() bool { return tr.codec != nil }

// withPlan returns the runner a coordinator-driven attempt runs in: the
// fault plan arrives with the assignment, not with the job, and brings its
// fetch-attempt bound with it (the runner was built without a plan).
func (tr *TaskRunner) withPlan(plan *faultinject.Plan) *TaskRunner {
	if plan == tr.plan {
		return tr
	}
	t := *tr
	t.plan, t.backoff = plan, fetchBackoff(tr.backoff, plan)
	return &t
}

// RunMap executes one map task attempt, registering its output partitions
// with the worker's shuffle server. Injected task-level faults (FailMap,
// spill errors) strike exactly as they do in-process; faultCtrs accumulates
// what was survived across attempts and may be shared between them.
func (tr *TaskRunner) RunMap(idx, attempt int, server *ShuffleServer, plan *faultinject.Plan, faultCtrs *mapreduce.Counters) (*mapreduce.Counters, error) {
	if idx < 0 || idx >= len(tr.splits) {
		return nil, fmt.Errorf("localrun: map index %d out of range [0, %d)", idx, len(tr.splits))
	}
	aid := mapreduce.MapAttempt(tr.jobID, idx, attempt)
	return tr.withPlan(plan).runMapTask(aid, server, faultCtrs)
}

// RunReduceFrom executes one attempt of reduce task r end to end — the
// in-process executor's copy phase, merge and reduce tail — over map outputs
// served at peers (per map, the shuffle server holding its committed output).
// midShuffle, when non-nil, runs once, when half the segments are in; a
// fetch whose retries ran out fails the attempt with a *FetchError. The copy
// phase ends early when ctx does.
func (tr *TaskRunner) RunReduceFrom(ctx context.Context, r, attempt int, peers []string, plan *faultinject.Plan, faultCtrs *mapreduce.Counters, midShuffle func()) (*mapreduce.Counters, error) {
	if r < 0 || r >= tr.numReduces {
		return nil, fmt.Errorf("localrun: reduce index %d out of range [0, %d)", r, tr.numReduces)
	}
	if len(peers) != len(tr.splits) {
		return nil, fmt.Errorf("localrun: %d map locations for %d maps", len(peers), len(tr.splits))
	}
	board := newCompletionBoard(len(peers))
	for m, addr := range peers {
		board.Announce(m, 0, addr) // the map's attempt id is the coordinator's business
	}
	aid := mapreduce.ReduceAttempt(tr.jobID, r, attempt)
	return tr.withPlan(plan).runReduceTask(ctx, aid, faultCtrs, board, midShuffle)
}

// RunReduce executes the sort+reduce tail of reduce task r over partition
// segments the caller already fetched (one per map, ascending map order; a
// flat merge over them emits records byte-identical to the copy phase's). It
// is the entry of the benchmark's staged serial replay, which fetches each
// segment with FetchMapOutput and times the stages apart. The caller owns
// shuffle-side counters (SHUFFLED_MAPS, REDUCE_SHUFFLE_BYTES); this adds the
// merge/reduce ones.
func (tr *TaskRunner) RunReduce(r, attempt int, parts []*kvbuf.Segment, plan *faultinject.Plan) (*mapreduce.Counters, error) {
	if r < 0 || r >= tr.numReduces {
		return nil, fmt.Errorf("localrun: reduce index %d out of range [0, %d)", r, tr.numReduces)
	}
	ctrs := mapreduce.NewCounters()
	rep := &mapreduce.CountersReporter{C: ctrs}
	if plan != nil && plan.FailReduce(r, attempt) {
		aid := mapreduce.ReduceAttempt(tr.jobID, r, attempt)
		return ctrs, faultinject.Errorf("localrun: %s aborted after shuffle", aid)
	}
	return ctrs, tr.reduceOverParts(r, parts, &tally{}, ctrs, rep)
}
