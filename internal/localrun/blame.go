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
// plan.TaskAttempts() times fails the job, so a job makes at most
// (maps + reduces) × bound failed attempts: every job ends. Reports against
// a superseded map version are the coordinator's to drop uncharged.
type Blame struct {
	bound   int
	mu      sync.Mutex
	charges map[mapreduce.TaskID]int
}

// NewBlame returns a ledger with no charges, bounded by plan.TaskAttempts().
func NewBlame(plan *faultinject.Plan) *Blame {
	return &Blame{bound: plan.TaskAttempts(), charges: make(map[mapreduce.TaskID]int)}
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

// ExhaustedError is the job failure Charge returns. Err is the last charged
// cause: for a map a reduce could not fetch, it holds the *FetchError naming
// that reduce and the peer asked.
type ExhaustedError struct {
	Culprit  mapreduce.TaskID
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
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
