// Package microbench implements the paper's contribution: a micro-benchmark
// suite for stand-alone Hadoop MapReduce. It provides the NullInputFormat /
// NullOutputFormat pair that removes HDFS from the picture, a generator
// Mapper with configurable key/value size, count and data type, the three
// custom partitioners realizing the paper's intermediate-data distributions
// (MR-AVG, MR-RAND, MR-SKEW), and a runner that executes a benchmark
// configuration on a simulated cluster (any engine × any network profile)
// or, at small scale, for real through the localrun executor.
package microbench

import (
	"fmt"

	"mrmicro/internal/javarand"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// Pattern selects an intermediate-data distribution.
type Pattern string

// The paper's three micro-benchmarks.
const (
	MRAvg  Pattern = "MR-AVG"
	MRRand Pattern = "MR-RAND"
	MRSkew Pattern = "MR-SKEW"
)

// Patterns lists the micro-benchmarks in the paper's order.
func Patterns() []Pattern { return []Pattern{MRAvg, MRRand, MRSkew} }

// NewPartitioner constructs the pattern's partitioner for one map task.
//
// pairsPerMap is the number of records the task will emit (MR-SKEW's fixed
// 50 % / 12.5 % / 4.7 % prefix thresholds depend on it); seed derives the
// deterministic java.util.Random stream for MR-RAND and MR-SKEW's random
// remainder — the paper seeds from wall clock, we seed per task for
// reproducible runs.
func NewPartitioner(p Pattern, pairsPerMap int64, seed int64) (mapreduce.Partitioner, error) {
	switch p {
	case MRAvg:
		return &AvgPartitioner{}, nil
	case MRRand:
		return &RandPartitioner{rng: javarand.New(seed)}, nil
	case MRSkew:
		return NewSkewPartitioner(pairsPerMap, seed), nil
	default:
		return nil, fmt.Errorf("microbench: unknown pattern %q", p)
	}
}

// AvgPartitioner is MR-AVG: intermediate pairs are dealt to reducers
// round-robin, so every reducer receives exactly the same count (±1).
type AvgPartitioner struct {
	next int
}

// Partition returns reducers cyclically.
func (a *AvgPartitioner) Partition(_, _ writable.Writable, numReduces int) int {
	p := a.next % numReduces
	a.next++
	return p
}

// Tally advances the partitioner exactly as n calls of Partition would and
// adds the reducers they return to counts, which holds one entry per reducer.
// distinct, when non-nil, gains per reducer the number of distinct keys among
// the n records, record i of the call carrying GenMapper's key index
// i % numReduces: the record count the map-side combiner collapses that
// partition to. Round-robin is a closed form — every reducer is dealt
// n / numReduces records and the first n % numReduces in turn one more, each
// reducer seeing a single key — so this costs O(numReduces), not O(n).
func (a *AvgPartitioner) Tally(counts, distinct []int64, n int64, numReduces int) {
	r := int64(numReduces)
	first := int64(a.next) % r
	for p := int64(0); p < r; p++ {
		c := n / r
		if (p-first+r)%r < n%r {
			c++
		}
		counts[p] += c
		if distinct != nil && c > 0 {
			distinct[p]++
		}
	}
	a.next += int(n)
}

// RandPartitioner is MR-RAND: each pair goes to a reducer drawn from
// java.util.Random.nextInt(numReduces), bit-exactly reproducing the paper's
// use of Java's Random. With the bounded range, every run produces "more or
// less the same pattern" of reducers (Sect. 4.2).
type RandPartitioner struct {
	rng *javarand.Rand
}

// Partition draws a uniform reducer.
func (r *RandPartitioner) Partition(_, _ writable.Writable, numReduces int) int {
	return int(r.rng.NextIntn(int32(numReduces)))
}

// Tally is AvgPartitioner.Tally's contract for MR-RAND. The generator's
// stream is the specification, so every record is still drawn — but on the
// concrete generator, with no interface call per record.
func (r *RandPartitioner) Tally(counts, distinct []int64, n int64, numReduces int) {
	drawTally(r.rng, newKeySet(distinct, numReduces), counts, 0, n, numReduces)
}

// drawTally draws records [from, to) of a Tally call from rng.
func drawTally(rng *javarand.Rand, keys *keySet, counts []int64, from, to int64, numReduces int) {
	bound := int32(numReduces)
	if keys == nil {
		for i := from; i < to; i++ {
			counts[rng.NextIntn(bound)]++
		}
		return
	}
	key := int(from % int64(numReduces))
	for i := from; i < to; i++ {
		p := int(rng.NextIntn(bound))
		counts[p]++
		keys.add(p, key)
		if key++; key == numReduces {
			key = 0
		}
	}
}

// keySet tracks, during one Tally call, which of GenMapper's numReduces key
// indices each partition has received, and counts each first sight.
type keySet struct {
	seen     []bool // [partition*numReduces + key]
	distinct []int64
}

// newKeySet returns nil when distinct is: the job has no combiner.
func newKeySet(distinct []int64, numReduces int) *keySet {
	if distinct == nil {
		return nil
	}
	return &keySet{seen: make([]bool, numReduces*numReduces), distinct: distinct}
}

func (s *keySet) add(partition, key int) {
	if i := partition*len(s.distinct) + key; !s.seen[i] {
		s.seen[i] = true
		s.distinct[partition]++
	}
}

// SkewPartitioner is MR-SKEW, the paper's fixed skew: the first reducer
// receives 50 % of the pairs, the second 25 % of the remainder (12.5 % of
// the total), the third 12.5 % of what remains after that (≈4.7 %), and the
// rest is distributed randomly. The pattern is fixed for every run, so
// comparisons across networks are fair (Sect. 4.2).
type SkewPartitioner struct {
	idx        int64
	t0, t1, t2 int64 // prefix thresholds for reducers 0, 1, 2
	rng        *javarand.Rand
}

// NewSkewPartitioner builds the skew partitioner for a task emitting
// pairsPerMap records.
func NewSkewPartitioner(pairsPerMap, seed int64) *SkewPartitioner {
	n0 := pairsPerMap / 2
	n1 := (pairsPerMap - n0) / 4
	n2 := (pairsPerMap - n0 - n1) / 8
	return &SkewPartitioner{
		t0:  n0,
		t1:  n0 + n1,
		t2:  n0 + n1 + n2,
		rng: javarand.New(seed),
	}
}

// Partition routes by the record's position in the task's output stream.
func (s *SkewPartitioner) Partition(_, _ writable.Writable, numReduces int) int {
	i := s.idx
	s.idx++
	switch {
	case i < s.t0:
		return 0
	case i < s.t1 && numReduces > 1:
		return 1
	case i < s.t2 && numReduces > 2:
		return 2
	default:
		return int(s.rng.NextIntn(int32(numReduces)))
	}
}

// Tally is AvgPartitioner.Tally's contract for MR-SKEW: the three positional
// prefixes are closed-form ranges, and only the random remainder of the
// stream (about a third) is drawn.
func (s *SkewPartitioner) Tally(counts, distinct []int64, n int64, numReduces int) {
	keys := newKeySet(distinct, numReduces)
	start, end := s.idx, s.idx+n
	s.idx = end
	// Reducer p owns stream positions [lo, hi) when it exists; reducer 0
	// always does.
	lo := int64(0)
	for p, hi := range [...]int64{s.t0, s.t1, s.t2} {
		if p >= numReduces {
			break
		}
		if from, to := max(lo, start), min(hi, end); from < to {
			counts[p] += to - from
			// A run of numReduces consecutive records holds every key.
			for i := from; keys != nil && i < min(to, from+int64(numReduces)); i++ {
				keys.add(p, int((i-start)%int64(numReduces)))
			}
		}
		lo = hi
	}
	if from := max(lo, start); from < end {
		drawTally(s.rng, keys, counts, from-start, end-start, numReduces)
	}
}
