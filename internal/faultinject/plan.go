// Package faultinject is the suite's seeded, deterministic fault-injection
// layer. A Plan describes which task attempts, shuffle fetches and spill
// writes should fail; both executors accept the same Plan — localrun injects
// the faults into real execution (dropped connections, truncated IFile
// payloads, aborted attempts) while the simulated engines (mrv1/yarn via
// mrsim) charge the equivalent wasted work to the modelled cluster.
//
// Every decision is a pure function of (Seed, injection site, task/attempt
// identifiers), computed by hashing rather than by drawing from a shared RNG
// stream. That makes runs reproducible regardless of goroutine scheduling:
// the same seed produces the same faults whether tasks run serially or on
// sixteen cores, which is what lets a faulty run be compared byte-for-byte
// against a clean one.
package faultinject

import (
	"errors"
	"fmt"
	"time"
)

// ErrInjected marks an artificially induced failure; recovery code can
// distinguish injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Errorf builds an error wrapping ErrInjected.
func Errorf(format string, args ...interface{}) error {
	return fmt.Errorf(format+": %w", append(args, ErrInjected)...)
}

// Plan is the engine-neutral fault specification. The zero value injects
// nothing. Rates are probabilities in [0, 1] evaluated independently per
// site; the MapFailures/ReduceFailures maps force exact per-task failure
// counts (the form the simulated-engine tests have always used).
type Plan struct {
	// Seed drives every probabilistic decision. Two runs with equal seeds
	// and rates inject identical faults.
	Seed int64

	// MapFailureRate / ReduceFailureRate fail a fraction of task attempts.
	// A failed attempt dies partway through (partial work charged, partial
	// shuffle registrations overwritten by the winning attempt).
	MapFailureRate    float64
	ReduceFailureRate float64

	// Shuffle-fetch faults, evaluated per (reduce, map, attempt) fetch:
	// Drop severs the connection before any payload arrives, Truncate
	// delivers a payload cut short (caught by IFile checksum verification),
	// Slow delays the fetch by ShuffleSlowness to model a congested peer.
	ShuffleDropRate     float64
	ShuffleTruncateRate float64
	ShuffleSlowRate     float64
	ShuffleSlowness     time.Duration // delay of a slow fetch (default 2ms)

	// SpillErrorRate injects a transient I/O error into the kvbuf spill
	// path; the map attempt dies and is re-executed.
	SpillErrorRate float64

	// MapFailures / ReduceFailures force faults deterministically: task
	// index -> number of attempts that die before one succeeds. Schedulers
	// re-queue failed attempts, as Hadoop does.
	MapFailures    map[int]int
	ReduceFailures map[int]int

	// Process-level fault kinds, injected only by the distributed runtime
	// (internal/distrun); the single-process executors ignore them.
	// WorkerKillRate / PartitionRate are evaluated per worker checkpoint by
	// Proc (see proc.go); the maps force a fault at one exact checkpoint:
	// worker index -> checkpoint sequence (epoch 0 only, so a respawned
	// worker does not crash-loop). PartitionDuration is how long an injected
	// partition cuts the worker's control plane (default 400ms).
	WorkerKillRate    float64
	PartitionRate     float64
	PartitionDuration time.Duration
	WorkerKills       map[int]int
	Partitions        map[int]int

	// MaxTaskAttempts bounds map/reduce re-execution (Hadoop's
	// mapreduce.map.maxattempts; default 4). MaxFetchAttempts bounds
	// shuffle-fetch retries per segment (default 4).
	MaxTaskAttempts  int
	MaxFetchAttempts int
}

// Injection sites, mixed into the decision hash so the same ids at
// different sites draw independent values.
const (
	siteMap uint64 = iota + 1
	siteReduce
	siteFetch
	siteSpill
)

// Enabled reports whether the plan can inject anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.MapFailureRate > 0 || p.ReduceFailureRate > 0 ||
		p.ShuffleDropRate > 0 || p.ShuffleTruncateRate > 0 || p.ShuffleSlowRate > 0 ||
		p.SpillErrorRate > 0 || len(p.MapFailures) > 0 || len(p.ReduceFailures) > 0 ||
		p.ProcEnabled()
}

// ProcEnabled reports whether the plan can inject process-level faults
// (worker kills, partitions) — the kinds only the distributed runtime acts on.
func (p *Plan) ProcEnabled() bool {
	if p == nil {
		return false
	}
	return p.WorkerKillRate > 0 || p.PartitionRate > 0 ||
		len(p.WorkerKills) > 0 || len(p.Partitions) > 0
}

// TaskAttempts returns the task-attempt bound both real engines charge
// failed attempts against, with the Hadoop default of 4 (also for a nil plan).
func (p *Plan) TaskAttempts() int {
	if p != nil && p.MaxTaskAttempts > 0 {
		return p.MaxTaskAttempts
	}
	return 4
}

// FetchAttempts returns the per-segment fetch-attempt bound (default 4).
func (p Plan) FetchAttempts() int {
	if p.MaxFetchAttempts > 0 {
		return p.MaxFetchAttempts
	}
	return 4
}

// Slowness returns the injected slow-fetch delay (default 2ms).
func (p Plan) Slowness() time.Duration {
	if p.ShuffleSlowness > 0 {
		return p.ShuffleSlowness
	}
	return 2 * time.Millisecond
}

// FailMap reports whether map idx's given attempt (0-based) should fail.
func (p Plan) FailMap(idx, attempt int) bool {
	return attempt < p.MapFailures[idx] || p.roll(siteMap, idx, attempt, 0) < p.MapFailureRate
}

// FailReduce reports whether reduce idx's given attempt should fail.
func (p Plan) FailReduce(idx, attempt int) bool {
	return attempt < p.ReduceFailures[idx] || p.roll(siteReduce, idx, attempt, 0) < p.ReduceFailureRate
}

// SpillError reports whether spill number seq of the given map attempt hits
// a transient I/O error.
func (p Plan) SpillError(mapIdx, attempt, seq int) bool {
	return p.roll(siteSpill, mapIdx, attempt, seq) < p.SpillErrorRate
}

// FetchFault classifies one shuffle-fetch attempt.
type FetchFault int

// Fetch outcomes.
const (
	FetchOK       FetchFault = iota // deliver normally
	FetchDrop                       // connection drops before the payload
	FetchTruncate                   // payload arrives cut short
	FetchSlow                       // peer responds after ShuffleSlowness
)

// String names the fault for logs.
func (f FetchFault) String() string {
	switch f {
	case FetchDrop:
		return "drop"
	case FetchTruncate:
		return "truncate"
	case FetchSlow:
		return "slow"
	default:
		return "ok"
	}
}

// Fetch decides the fate of reduce r's fetch attempt for map m's output.
// One uniform draw covers the three fault classes so their rates compose
// (drop + truncate + slow must be <= 1 to all be reachable).
func (p Plan) Fetch(reduce, mapIdx, attempt int) FetchFault {
	u := p.roll(siteFetch, reduce, mapIdx, attempt)
	switch {
	case u < p.ShuffleDropRate:
		return FetchDrop
	case u < p.ShuffleDropRate+p.ShuffleTruncateRate:
		return FetchTruncate
	case u < p.ShuffleDropRate+p.ShuffleTruncateRate+p.ShuffleSlowRate:
		return FetchSlow
	default:
		return FetchOK
	}
}

// roll hashes (seed, site, a, b, c) to a uniform float64 in [0, 1).
func (p Plan) roll(site uint64, a, b, c int) float64 {
	h := splitmix(uint64(p.Seed) ^ site*0x9e3779b97f4a7c15)
	h = splitmix(h ^ uint64(a)*0xbf58476d1ce4e5b9)
	h = splitmix(h ^ uint64(b)*0x94d049bb133111eb)
	h = splitmix(h ^ uint64(c)*0xd6e8feb86659fd93)
	return float64(h>>11) / (1 << 53)
}

// splitmix is the splitmix64 finalizer: a cheap, well-distributed mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
