package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"mrmicro/internal/writable"
)

// TotalOrderPartitioner routes keys by comparing their serialized form
// against R-1 sampled cut points, so partition i holds only keys less than
// partition i+1's — the mechanism behind TeraSort's globally sorted output.
type TotalOrderPartitioner struct {
	cmp       writable.RawComparator
	cutPoints [][]byte
	enc       *writable.DataOutput
}

// NewTotalOrderPartitioner builds a partitioner for numReduces partitions
// from sorted cut points (length numReduces-1, ascending by cmp).
func NewTotalOrderPartitioner(cmp writable.RawComparator, cutPoints [][]byte) (*TotalOrderPartitioner, error) {
	for i := 1; i < len(cutPoints); i++ {
		if cmp(cutPoints[i-1], cutPoints[i]) > 0 {
			return nil, fmt.Errorf("mapreduce: cut points not sorted at %d", i)
		}
	}
	return &TotalOrderPartitioner{cmp: cmp, cutPoints: cutPoints, enc: writable.NewDataOutput(64)}, nil
}

// Partition binary-searches the cut points.
func (t *TotalOrderPartitioner) Partition(key, _ writable.Writable, numReduces int) int {
	if len(t.cutPoints) != numReduces-1 {
		panic(fmt.Sprintf("mapreduce: %d cut points for %d reduces", len(t.cutPoints), numReduces))
	}
	t.enc.Reset()
	key.Write(t.enc)
	raw := t.enc.Bytes()
	// First cut point whose value exceeds the key = the key's partition.
	return sort.Search(len(t.cutPoints), func(i int) bool {
		return t.cmp(raw, t.cutPoints[i]) < 0
	})
}

// SampleSplitPoints scans up to maxSamples keys from the input (round-robin
// over splits, like Hadoop's InputSampler.SplitSampler) and returns
// numReduces-1 quantile cut points in serialized form.
//
// The samples are marshalled into one arena and sorted as views into it.
// Keys that compare equal serialize to equal bytes, so the cut at each
// quantile index is the same bytes whichever correct sort put it there.
func SampleSplitPoints(input InputFormat, conf *Conf, keyType string, numReduces, maxSamples int) ([][]byte, error) {
	if numReduces < 1 {
		return nil, fmt.Errorf("mapreduce: sampler needs at least one reduce")
	}
	cmp, err := writable.Comparator(keyType)
	if err != nil {
		return nil, err
	}
	splits, err := input.Splits(conf)
	if err != nil {
		return nil, err
	}
	if maxSamples <= 0 {
		maxSamples = 100000
	}
	perSplit := (maxSamples + len(splits) - 1) / len(splits)
	arena := writable.NewDataOutput(64 << 10)
	var ends []int // sample i is arena[ends[i-1]:ends[i]]
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
			k.Write(arena)
			ends = append(ends, arena.Len())
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	if len(ends) == 0 {
		return nil, fmt.Errorf("mapreduce: sampler saw no records")
	}
	buf := arena.Bytes()
	samples := make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		samples[i] = buf[start:end:end]
		start = end
	}
	slices.SortFunc(samples, cmp)
	cuts := make([][]byte, 0, numReduces-1)
	for i := 1; i < numReduces; i++ {
		cuts = append(cuts, bytes.Clone(samples[i*len(samples)/numReduces]))
	}
	return cuts, nil
}
