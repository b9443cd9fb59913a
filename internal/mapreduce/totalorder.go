package mapreduce

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"sort"

	"mrmicro/internal/writable"
)

// TotalOrderPartitioner routes keys by comparing their serialized form
// against R-1 sampled cut points, so partition i holds only keys less than
// partition i+1's — the mechanism behind TeraSort's globally sorted output.
// The cut points' prefixes under the key type's writable.KeyOrder are taken
// once, and the binary search decides by KeyOrder.Compare: the comparator
// runs only where the key ties a cut's prefix.
type TotalOrderPartitioner struct {
	order     writable.KeyOrder
	cutPoints [][]byte
	cutPrefix []uint64
	enc       *writable.DataOutput
}

// NewTotalOrderPartitioner builds a partitioner for numReduces partitions
// from sorted cut points (length numReduces-1, ascending by keyType's raw
// comparator).
func NewTotalOrderPartitioner(keyType string, cutPoints [][]byte) (*TotalOrderPartitioner, error) {
	order, err := writable.Order(keyType)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(cutPoints); i++ {
		if order.Cmp(cutPoints[i-1], cutPoints[i]) > 0 {
			return nil, fmt.Errorf("mapreduce: cut points not sorted at %d", i)
		}
	}
	t := &TotalOrderPartitioner{order: order, cutPoints: cutPoints, cutPrefix: make([]uint64, len(cutPoints)), enc: writable.NewDataOutput(64)}
	for i, c := range cutPoints {
		t.cutPrefix[i] = order.Prefix(c)
	}
	return t, nil
}

// Partition binary-searches the cut points for the first one above the key:
// that is the key's partition.
func (t *TotalOrderPartitioner) Partition(key, _ writable.Writable, numReduces int) int {
	if len(t.cutPoints) != numReduces-1 {
		panic(fmt.Sprintf("mapreduce: %d cut points for %d reduces", len(t.cutPoints), numReduces))
	}
	t.enc.Reset()
	key.Write(t.enc)
	raw := t.enc.Bytes()
	p := t.order.Prefix(raw)
	cuts, prefixes := t.cutPoints, t.cutPrefix[:len(t.cutPoints)] // one bounds check a step, not two
	return sort.Search(len(cuts), func(i int) bool {
		return t.order.Compare(raw, p, cuts[i], prefixes[i]) < 0
	})
}

// SampleSplitPoints scans up to maxSamples keys from the input (round-robin
// over splits, like Hadoop's InputSampler.SplitSampler) and returns
// numReduces-1 quantile cut points in serialized form.
//
// The samples are marshalled into one arena, and each cut is selected in
// place (quickselect) rather than found by sorting: the cut at quantile
// index q is the sample a full sort would put at q. Keys that compare equal
// serialize to equal bytes, so it is the same bytes whichever correct
// selection put it there.
func SampleSplitPoints(input InputFormat, conf *Conf, keyType string, numReduces, maxSamples int) ([][]byte, error) {
	if numReduces < 1 {
		return nil, fmt.Errorf("mapreduce: sampler needs at least one reduce")
	}
	order, err := writable.Order(keyType)
	if err != nil {
		return nil, err
	}
	splits, err := input.Splits(conf)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, errNoSamples
	}
	if maxSamples <= 0 {
		maxSamples = 100000
	}
	perSplit := (maxSamples + len(splits) - 1) / len(splits)
	// The sample list holds every sample the loop may take, and the arena,
	// sized at the first key, that many keys of its length: neither regrows.
	target := perSplit * len(splits)
	samples := make([]sample, 0, target)
	var arena *writable.DataOutput
	for _, s := range splits {
		r, err := input.Reader(s, conf)
		if err != nil {
			return nil, err
		}
		for i := 0; i < perSplit; i++ {
			k, _, ok, err := r.Next()
			if err != nil {
				r.Close()
				return nil, err
			}
			if !ok {
				break
			}
			if arena == nil {
				arena = writable.NewDataOutput(len(writable.Marshal(k)) * target)
			}
			start := arena.Len()
			k.Write(arena)
			samples = append(samples, sample{prefix: order.Prefix(arena.Bytes()[start:]), start: start, end: arena.Len()})
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	if len(samples) == 0 {
		return nil, errNoSamples
	}
	buf := arena.Bytes()
	key := func(s sample) []byte { return buf[s.start:s.end] }
	// The one order decision outside writable.KeyOrder: as Compare(key(a),
	// a.prefix, key(b), b.prefix) it slices both keys out of the arena on every
	// comparison, not only on a tie, and BenchmarkSampleSplitPoints went
	// 15.5 → 18.1 ms/op (8 of 8 interleaved runs, 2-vCPU Xeon; PERFORMANCE.md
	// §3f). So it tests the prefixes itself and slices keys only on a tie.
	cmpSamples := func(a, b sample) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return order.Cmp(key(a), key(b))
	}
	cuts := make([][]byte, 0, numReduces-1)
	lo := 0 // every sample below lo is at most the previous cut
	for i := 1; i < numReduces; i++ {
		q := i * len(samples) / numReduces
		if q >= lo {
			selectNth(samples, lo, q, cmpSamples)
			lo = q + 1
		}
		cuts = append(cuts, bytes.Clone(key(samples[q])))
	}
	return cuts, nil
}

var errNoSamples = errors.New("mapreduce: sampler saw no records")

// sample is one sampled key, arena[start:end], and its prefix. It holds no
// pointer, so reordering samples costs the garbage collector nothing.
type sample struct {
	prefix     uint64
	start, end int
}

// selectNth reorders v[lo:] so that v[n] is the sample a sort by order would
// put there, with every sample before it at most v[n] and every one after at
// least. Three-way partitioning keeps runs of equal keys linear, and the
// pivots come from a fixed xorshift sequence, so no input order is a worst
// case by design and the result is the same on every run.
func selectNth(v []sample, lo, n int, order func(a, b sample) int) {
	rnd := uint64(0x9E3779B97F4A7C15)
	hi := len(v)
	for hi-lo > 1 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		pivot := v[lo+int(rnd%uint64(hi-lo))]
		// [lo,lt) < pivot, [lt,i) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch c := order(v[i], pivot); {
			case c < 0:
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case c > 0:
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt
		case n >= gt:
			lo = gt
		default:
			return // v[n] is in the run equal to the pivot
		}
	}
}
