// Package mapreduce defines the engine-neutral core of a Hadoop-style
// MapReduce framework: job configuration with Hadoop parameter names, the
// Mapper/Reducer/Partitioner/Combiner contracts, input/output formats,
// task identifiers, and counters.
//
// Two executors consume this API: localrun (real in-process execution over
// real bytes, the correctness anchor) and the simulated engines mrv1/yarn
// (timing-accurate execution on a modelled cluster, the measurement
// instrument).
package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
)

// Conf is a string-keyed job configuration, like Hadoop's Configuration.
// Unset keys fall back to the caller-supplied default, so engines behave
// like Hadoop's *-default.xml without a config file.
type Conf struct {
	m map[string]string
}

// Hadoop 1.x/2.x parameter names used throughout the suite.
const (
	ConfNumMaps            = "mapreduce.job.maps"
	ConfNumReduces         = "mapreduce.job.reduces"
	ConfIOSortMB           = "mapreduce.task.io.sort.mb"
	ConfIOSortFactor       = "mapreduce.task.io.sort.factor"
	ConfSortSpillPercent   = "mapreduce.map.sort.spill.percent"
	ConfParallelCopies     = "mapreduce.reduce.shuffle.parallelcopies"
	ConfSlowstartMaps      = "mapreduce.job.reduce.slowstart.completedmaps"
	ConfShuffleInputBufPct = "mapreduce.reduce.shuffle.input.buffer.percent"
	ConfShuffleMergePct    = "mapreduce.reduce.shuffle.merge.percent"

	// ConfShuffleInputBufBytes is the absolute-byte form of the reduce-side
	// shuffle memory budget (the percent key scales a modelled task heap;
	// the real executor has no heap bound to scale, so it takes bytes).
	// 0 = unbounded in the real executor / derive from percent in the
	// simulated engines.
	ConfShuffleInputBufBytes = "mapreduce.reduce.shuffle.input.buffer.bytes"
	// ConfSpillOverlap gates the map side's background SpillThread: when
	// true (the default, as in Hadoop since MAPREDUCE-64) a spill that
	// crosses the sort.spill.percent soft limit is sorted, combined,
	// compressed and sealed on a background spiller while the mapper keeps
	// collecting into a fresh buffer. false restores the fully synchronous
	// spill-in-line path. Spill boundaries are identical either way — the
	// knob moves time, never bytes.
	ConfSpillOverlap = "mapreduce.map.spill.overlap"
	// ConfSpillInflight bounds how many sealed-but-unspilled buffers the
	// background spiller may hold before the collector blocks (backpressure
	// when collection outruns spilling). Each in-flight spill pins one
	// io.sort.mb buffer, so the map task's collection memory is
	// (inflight+1) x io.sort.mb while spills overlap. Default 1: classic
	// double buffering.
	ConfSpillInflight = "mapreduce.map.spill.inflight"

	ConfMapSlots       = "mapreduce.tasktracker.map.tasks.maximum"
	ConfReduceSlots    = "mapreduce.tasktracker.reduce.tasks.maximum"
	ConfMapMemoryMB    = "mapreduce.map.memory.mb"
	ConfReduceMemoryMB = "mapreduce.reduce.memory.mb"
	ConfNodeMemoryMB   = "yarn.nodemanager.resource.memory-mb"
	ConfSpeculative    = "mapreduce.map.speculative"
	ConfCombineClass   = "mapreduce.job.combine.class"
	ConfCompressMapOut = "mapreduce.map.output.compress"
	ConfCompressCodec  = "mapreduce.map.output.compress.codec"
	ConfCompressRatio  = "mapreduce.map.output.compress.ratio" // sim-only: modelled output/input ratio
	ConfJobName        = "mapreduce.job.name"
)

// NewConf returns an empty configuration.
func NewConf() *Conf { return &Conf{m: make(map[string]string)} }

// Clone returns a deep copy.
func (c *Conf) Clone() *Conf {
	out := NewConf()
	for k, v := range c.m {
		out.m[k] = v
	}
	return out
}

// Set stores a string value.
func (c *Conf) Set(key, value string) *Conf {
	c.m[key] = value
	return c
}

// SetInt stores an integer value.
func (c *Conf) SetInt(key string, value int) *Conf { return c.Set(key, strconv.Itoa(value)) }

// SetFloat stores a float value.
func (c *Conf) SetFloat(key string, value float64) *Conf {
	return c.Set(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// SetBool stores a boolean value.
func (c *Conf) SetBool(key string, value bool) *Conf { return c.Set(key, strconv.FormatBool(value)) }

// Get returns the raw value or def when unset.
func (c *Conf) Get(key, def string) string {
	if v, ok := c.m[key]; ok {
		return v
	}
	return def
}

// GetInt returns an integer value or def when unset. A malformed value
// panics in the typed accessors; code reading values that came from outside
// the program reads them inside Resolve, which returns the error instead.
func (c *Conf) GetInt(key string, def int) int {
	v, ok := c.m[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(&malformedValue{key, v, "an int"})
	}
	return n
}

// GetFloat returns a float value or def when unset.
func (c *Conf) GetFloat(key string, def float64) float64 {
	v, ok := c.m[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(&malformedValue{key, v, "a float"})
	}
	return f
}

// GetBool returns a boolean value or def when unset.
func (c *Conf) GetBool(key string, def bool) bool {
	v, ok := c.m[key]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		panic(&malformedValue{key, v, "a bool"})
	}
	return b
}

// malformedValue is what a typed accessor panics with.
type malformedValue struct{ key, value, want string }

func (e *malformedValue) Error() string {
	return fmt.Sprintf("mapreduce: conf key %q = %q is not %s", e.key, e.value, e.want)
}

// Resolve runs read, which may call any typed accessor, and returns a
// malformed value as a *JobError naming key and value where the accessor
// alone would panic.
func (c *Conf) Resolve(read func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			bad, ok := r.(*malformedValue)
			if !ok {
				panic(r)
			}
			err = &JobError{Msg: bad.Error()}
		}
	}()
	return read()
}

// Keys returns the set keys in sorted order (for reproducible report echo).
func (c *Conf) Keys() []string {
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Common derived accessors with Hadoop defaults of the paper's era.

// NumMaps returns mapreduce.job.maps (default 2).
func (c *Conf) NumMaps() int { return c.GetInt(ConfNumMaps, 2) }

// NumReduces returns mapreduce.job.reduces (default 1).
func (c *Conf) NumReduces() int { return c.GetInt(ConfNumReduces, 1) }

// IOSortMB returns the map-side sort buffer size in MiB (default 100).
func (c *Conf) IOSortMB() int { return c.GetInt(ConfIOSortMB, 100) }

// IOSortFactor returns the merge fan-in (default 10).
func (c *Conf) IOSortFactor() int { return c.GetInt(ConfIOSortFactor, 10) }

// SortSpillPercent returns the buffer fill fraction that triggers a spill
// (default 0.80).
func (c *Conf) SortSpillPercent() float64 { return c.GetFloat(ConfSortSpillPercent, 0.80) }

// SpillOverlap reports whether map tasks spill on a background spiller
// overlapped with collection (default true).
func (c *Conf) SpillOverlap() bool { return c.GetBool(ConfSpillOverlap, true) }

// SpillInflight returns the sealed-buffer bound of the background spiller
// (default 1: double buffering). Values below 1 clamp to 1.
func (c *Conf) SpillInflight() int {
	if n := c.GetInt(ConfSpillInflight, 1); n > 1 {
		return n
	}
	return 1
}

// ParallelCopies returns the number of concurrent shuffle fetchers per
// reducer (default 5).
func (c *Conf) ParallelCopies() int { return c.GetInt(ConfParallelCopies, 5) }

// SlowstartMaps returns the completed-map fraction before reducers launch
// (default 0.05).
func (c *Conf) SlowstartMaps() float64 { return c.GetFloat(ConfSlowstartMaps, 0.05) }

// ShuffleMemoryBytes returns the reduce-side shuffle memory budget in bytes
// (default 0: unbounded in the real executor, percent-derived in the
// simulated engines).
func (c *Conf) ShuffleMemoryBytes() int64 { return int64(c.GetInt(ConfShuffleInputBufBytes, 0)) }

// ShuffleMergePercent returns the pool fill fraction that triggers a
// reduce-side merge spill (default 0.66).
func (c *Conf) ShuffleMergePercent() float64 { return c.GetFloat(ConfShuffleMergePct, 0.66) }

// CompressCodec returns the map-output codec name, or "" when
// mapreduce.map.output.compress is off. When compression is on and no codec
// is named, the default is deflate.
func (c *Conf) CompressCodec() string {
	if !c.GetBool(ConfCompressMapOut, false) {
		return ""
	}
	return c.Get(ConfCompressCodec, "deflate")
}
