package localrun

import (
	"fmt"
	"sync"
	"time"
)

// completionBoard is the job-scoped map-completion event plane — Hadoop's
// task-completion-events protocol in miniature. A map task publishes to it
// once, when its winning attempt commits; reduce tasks subscribe to launch on
// the slow-start threshold and to fetch each map's output as soon as it
// exists instead of after a global barrier.
//
// The invariant the copy phase rests on: a map is announced only after all
// its partitions are registered with the shuffle server, and exactly once per
// job (failed attempts never announce). So an announced map's segments are
// there to fetch and never change, and each (map, reduce) partition crosses
// the wire once per reduce attempt.
type completionBoard struct {
	mu         sync.Mutex
	attempts   []int // per map: committed attempt id; -1 until it commits
	committed  int
	lastCommit time.Time
	broadcast  chan struct{} // closed and replaced on every announce
}

func newCompletionBoard(numMaps int) *completionBoard {
	b := &completionBoard{
		attempts:  make([]int, numMaps),
		broadcast: make(chan struct{}),
	}
	for i := range b.attempts {
		b.attempts[i] = -1
	}
	return b
}

// Announce publishes map mapIdx's committed attempt. A map commits once: a
// second announcement is a scheduler bug, and panics before touching the
// board — subscribers may already have fetched the first attempt's bytes.
func (b *completionBoard) Announce(mapIdx, attempt int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev := b.attempts[mapIdx]; prev >= 0 {
		panic(fmt.Sprintf("localrun: map %d announced twice (attempt %d after attempt %d)", mapIdx, attempt, prev))
	}
	b.attempts[mapIdx] = attempt
	b.committed++
	b.lastCommit = time.Now()
	close(b.broadcast)
	b.broadcast = make(chan struct{})
}

// CommittedMaps returns how many maps have committed.
func (b *completionBoard) CommittedMaps() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.committed
}

// LastCommit returns the wall-clock time of the most recent announcement
// (zero before the first).
func (b *completionBoard) LastCommit() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastCommit
}

// poll copies the per-map committed attempts into snap (which must hold
// numMaps entries) and returns a channel that is closed at the next
// announcement. Subscribers loop: poll, act on the snapshot, then block on
// the returned channel.
func (b *completionBoard) poll(snap []int) (next <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	copy(snap, b.attempts)
	return b.broadcast
}

// waitCommitted blocks until at least target maps have committed or done
// closes, reporting whether the target was reached. This is the reduce
// slow-start gate: target = ceil-ish slowstart fraction of the map count.
func (b *completionBoard) waitCommitted(target int, done <-chan struct{}) bool {
	for {
		b.mu.Lock()
		reached := b.committed >= target
		next := b.broadcast
		b.mu.Unlock()
		if reached {
			return true
		}
		select {
		case <-next:
		case <-done:
			return false
		}
	}
}

// slowstartTarget converts the slowstart fraction into the completed-map
// count reducers wait for, matching the simulated engines' JobState
// semantics: at least one map, at most all of them.
func slowstartTarget(frac float64, numMaps int) int {
	t := int(frac * float64(numMaps))
	if t < 1 {
		t = 1
	}
	if t > numMaps {
		t = numMaps
	}
	return t
}
