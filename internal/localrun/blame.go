package localrun

import (
	"errors"
	"fmt"
	"sync"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/mapreduce"
)

// ErrAttemptsExhausted marks a job that failed because one culprit's failed
// attempts reached the bound: the recovery machinery working as specified,
// not a runtime bug, so differential checkers (mrcheck) skip such runs.
var ErrAttemptsExhausted = errors.New("localrun: task attempts exhausted")

// Blame is the attempt-and-blame rule of both real engines (runTask and the
// distrun coordinator): every failed attempt is charged to one culprit, the
// map a reduce's fetch ran out of retries on (a *FetchError in the cause;
// Hadoop blames the mapper too), else the failing task. A culprit charged
// plan.TaskAttempts() times fails the job. Reports against a superseded map
// version are the coordinator's to drop uncharged.
//
// A map whose committed output died with the worker serving it did nothing
// wrong: the coordinator charges that loss to the worker slot instead (Lost),
// and the map's re-run is KILLED, not FAILED, as Hadoop counts a map re-run
// for output lost with its TaskTracker outside mapreduce.map.maxattempts. A
// slot charged bound times gets no more tasks, and the job fails once every
// slot has, so a job makes at most (maps + reduces + worker slots) × bound
// failed or killed attempts: every job ends. localrun has no host to lose
// and only ever calls Charge.
type Blame struct {
	bound   int
	mu      sync.Mutex
	charges map[mapreduce.TaskID]int
	lost    map[int]int // per worker slot: deaths that lost map output
}

// NewBlame returns a ledger with no charges, bounded by plan.TaskAttempts().
func NewBlame(plan *faultinject.Plan) *Blame {
	return &Blame{bound: plan.TaskAttempts(), charges: make(map[mapreduce.TaskID]int), lost: make(map[int]int)}
}

// Charge charges one failed attempt of task, which failed with cause, to its
// culprit, and returns an *ExhaustedError once the culprit reaches the bound.
func (b *Blame) Charge(task mapreduce.TaskID, cause error) error {
	var fe *FetchError
	if errors.As(cause, &fe) {
		task = mapreduce.TaskID{Job: task.Job, Type: mapreduce.TaskMap, Index: fe.Map}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.charges[task]++; b.charges[task] < b.bound {
		return nil
	}
	return &ExhaustedError{Culprit: task, Attempts: b.bound, Err: cause}
}

// Lost charges one death of worker slot worker that took committed map
// output with it, whose loss a reduce reported with cause, and returns an
// *ExhaustedError once the slot reaches the bound (and on every charge
// after). The map is not charged.
func (b *Blame) Lost(worker int, cause error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lost[worker]++; b.lost[worker] < b.bound {
		return nil
	}
	return &ExhaustedError{Worker: worker, HostLost: true, Attempts: b.bound, Err: cause}
}

// ExhaustedError is the job failure Charge and Lost return. Err is the last
// charged cause: for a map a reduce could not fetch, it holds the
// *FetchError naming that reduce and the peer asked. HostLost marks Lost's:
// Worker is then the slot whose deaths lost map output Attempts times, and
// Culprit is unset.
type ExhaustedError struct {
	Culprit  mapreduce.TaskID
	Worker   int
	HostLost bool
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
	if e.HostLost {
		return fmt.Sprintf("localrun: worker %d lost map output %d times: %v", e.Worker, e.Attempts, e.Err)
	}
	var fe *FetchError
	if errors.As(e.Err, &fe) {
		return fmt.Sprintf("localrun: map %d failed after %d attempts: reduce %d could not fetch it from %s: %v",
			fe.Map, e.Attempts, fe.Reduce, fe.Peer, fe.Err)
	}
	return fmt.Sprintf("localrun: %s %d failed after %d attempts: %v", kindOf(e.Culprit.Type), e.Culprit.Index, e.Attempts, e.Err)
}

func (e *ExhaustedError) Is(target error) bool { return target == ErrAttemptsExhausted }

func (e *ExhaustedError) Unwrap() error { return e.Err }

func kindOf(t mapreduce.TaskType) string {
	if t == mapreduce.TaskReduce {
		return "reduce"
	}
	return "map"
}
