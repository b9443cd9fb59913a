// Package mrsim holds the engine-neutral pieces of the simulated MapReduce
// runtimes: the resolved JobSpec (the per-(map, reduce) record/byte matrix
// a job shuffles), the Report, and the task execution bodies shared by the
// MRv1 (JobTracker/slots) and YARN (RM/containers) schedulers.
//
// Task execution follows Hadoop's phase structure — map generate/collect,
// buffer sort + multi-spill, on-disk merge passes, slow-start shuffle with
// parallel fetchers, reduce-side in-memory merge with disk overflow, final
// merge, reduce function — with costs charged to the simulated cluster's
// cores, page-cache/disks and network fabric.
//
// The engines do not rerun user code: the microbench layer runs the real
// partitioner offline and hands them a JobSpec with the exact intermediate
// data matrix the real job would produce.
package mrsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// SegSpec is the intermediate data one map task produces for one reducer.
type SegSpec struct {
	Records int64
	Bytes   int64 // serialized IFile bytes (framing included)
}

// JobSpec is a fully resolved simulated job: the intermediate-data matrix
// plus configuration.
type JobSpec struct {
	Name string
	Conf *mapreduce.Conf

	// Partitions[m][r] is what map m shuffles to reducer r, produced by
	// running the job's real partitioner over its real key sequence.
	Partitions [][]SegSpec

	// TypeFactor scales per-record/per-byte CPU costs for the intermediate
	// data type (1.0 = BytesWritable; Text pays UTF-8 validation etc.).
	TypeFactor float64

	// PostCombine[m][r], when non-nil, is what map m actually ships to
	// reducer r after the map-side combiner collapsed each key group —
	// produced by counting distinct keys per partition with the same real
	// partitioner run that fills Partitions. Spill writes, merges and the
	// shuffle move these records/bytes; Partitions keeps the pre-combine
	// matrix for MAP_OUTPUT_* accounting. Nil means no combiner.
	PostCombine [][]SegSpec

	// MapOutputRawBytes is the job's total raw map-output payload (key+value
	// serialization without IFile record framing). The real executor's
	// MAP_OUTPUT_BYTES counter is raw bytes while Partitions[][].Bytes is
	// framed wire bytes; carrying both lets the simulated engines report
	// counters bit-identical to localrun's. Zero means unknown, in which
	// case counters fall back to TotalShuffleBytes.
	MapOutputRawBytes int64

	// MapInputRecords / MapInputBytes are the real input's totals, set by
	// spec builders that know them (the workload path runs the real record
	// readers). They exist so the simulated engines' MAP_INPUT_* counters
	// match localrun's exactly. Zero MapInputRecords means the NullInput
	// convention applies: one dummy record per map, no input bytes.
	MapInputRecords int64
	MapInputBytes   int64

	// Shuffle overrides the reducer copy-phase strategy; nil selects the
	// stock Hadoop TCP shuffle (StockShuffle).
	Shuffle ShufflePlugin

	// Plan is the shared fault specification: the same type localrun's real
	// executor consumes, so one fault config drives both the simulated and
	// the real engines. Promoted fields keep the historical spelling
	// (spec.MapFailures = ... : task index -> attempts that die before one
	// succeeds) working; rates add seeded probabilistic failures. Schedulers
	// re-queue failed attempts, as Hadoop does.
	faultinject.Plan
}

// Validate checks internal consistency.
func (s *JobSpec) Validate() error {
	if len(s.Partitions) == 0 {
		return fmt.Errorf("mrsim: job %q has no map tasks", s.Name)
	}
	nr := len(s.Partitions[0])
	if nr == 0 {
		return fmt.Errorf("mrsim: job %q has no reduce tasks", s.Name)
	}
	for m, row := range s.Partitions {
		if len(row) != nr {
			return fmt.Errorf("mrsim: job %q: map %d has %d partitions, want %d", s.Name, m, len(row), nr)
		}
		for r, seg := range row {
			if seg.Records < 0 || seg.Bytes < 0 {
				return fmt.Errorf("mrsim: job %q: negative segment at [%d][%d]", s.Name, m, r)
			}
		}
	}
	if s.PostCombine != nil {
		if len(s.PostCombine) != len(s.Partitions) {
			return fmt.Errorf("mrsim: job %q: PostCombine has %d rows, want %d", s.Name, len(s.PostCombine), len(s.Partitions))
		}
		for m, row := range s.PostCombine {
			if len(row) != nr {
				return fmt.Errorf("mrsim: job %q: PostCombine map %d has %d partitions, want %d", s.Name, m, len(row), nr)
			}
			for r, seg := range row {
				if seg.Records < 0 || seg.Bytes < 0 {
					return fmt.Errorf("mrsim: job %q: negative post-combine segment at [%d][%d]", s.Name, m, r)
				}
				if seg.Records > s.Partitions[m][r].Records || seg.Bytes > s.Partitions[m][r].Bytes {
					return fmt.Errorf("mrsim: job %q: post-combine segment [%d][%d] larger than its input", s.Name, m, r)
				}
			}
		}
	}
	if s.TypeFactor <= 0 {
		s.TypeFactor = 1.0
	}
	if s.Conf == nil {
		s.Conf = mapreduce.NewConf()
	}
	return nil
}

// DataDigest hashes everything of the spec that is the job's data rather
// than the environment it runs in: both matrices, the raw byte total, the
// input counters and the type factor. The spec-matrix goldens pin it.
func (s *JobSpec) DataDigest() string {
	h := sha256.New()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, matrix := range [][][]SegSpec{s.Partitions, s.PostCombine} {
		put(int64(len(matrix)))
		for _, row := range matrix {
			put(int64(len(row)))
			for _, seg := range row {
				put(seg.Records)
				put(seg.Bytes)
			}
		}
	}
	put(s.MapOutputRawBytes)
	put(s.MapInputRecords)
	put(s.MapInputBytes)
	fmt.Fprintf(h, "%g", s.TypeFactor)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// NumMaps returns the map task count.
func (s *JobSpec) NumMaps() int { return len(s.Partitions) }

// NumReduces returns the reduce task count.
func (s *JobSpec) NumReduces() int { return len(s.Partitions[0]) }

// MapRecords returns map m's total output records.
func (s *JobSpec) MapRecords(m int) int64 {
	var n int64
	for _, seg := range s.Partitions[m] {
		n += seg.Records
	}
	return n
}

// MapBytes returns map m's total output bytes.
func (s *JobSpec) MapBytes(m int) int64 {
	var n int64
	for _, seg := range s.Partitions[m] {
		n += seg.Bytes
	}
	return n
}

// ReduceRecords returns reducer r's total input records.
func (s *JobSpec) ReduceRecords(r int) int64 {
	var n int64
	for m := range s.Partitions {
		n += s.Partitions[m][r].Records
	}
	return n
}

// ReduceBytes returns reducer r's total input bytes.
func (s *JobSpec) ReduceBytes(r int) int64 {
	var n int64
	for m := range s.Partitions {
		n += s.Partitions[m][r].Bytes
	}
	return n
}

// Combining reports whether a map-side combiner collapses the shuffled
// data (PostCombine matrix present).
func (s *JobSpec) Combining() bool { return s.PostCombine != nil }

// ShuffleSeg returns the segment map m actually ships to reducer r: the
// post-combine entry when a combiner runs, else the raw partition.
func (s *JobSpec) ShuffleSeg(m, r int) SegSpec {
	if s.PostCombine != nil {
		return s.PostCombine[m][r]
	}
	return s.Partitions[m][r]
}

// MapShuffleRecords returns map m's output records after any combining.
func (s *JobSpec) MapShuffleRecords(m int) int64 {
	var n int64
	for r := range s.Partitions[m] {
		n += s.ShuffleSeg(m, r).Records
	}
	return n
}

// MapShuffleBytes returns map m's output bytes after any combining.
func (s *JobSpec) MapShuffleBytes(m int) int64 {
	var n int64
	for r := range s.Partitions[m] {
		n += s.ShuffleSeg(m, r).Bytes
	}
	return n
}

// ReduceShuffleRecords returns reducer r's input records after any
// combining — what actually crosses the wire and feeds the reduce merge.
func (s *JobSpec) ReduceShuffleRecords(r int) int64 {
	var n int64
	for m := range s.Partitions {
		n += s.ShuffleSeg(m, r).Records
	}
	return n
}

// ReduceShuffleBytes returns reducer r's input bytes after any combining.
func (s *JobSpec) ReduceShuffleBytes(r int) int64 {
	var n int64
	for m := range s.Partitions {
		n += s.ShuffleSeg(m, r).Bytes
	}
	return n
}

// TotalShuffleBytes returns the job's intermediate data volume.
func (s *JobSpec) TotalShuffleBytes() int64 {
	var n int64
	for m := range s.Partitions {
		n += s.MapBytes(m)
	}
	return n
}

// TotalRecords returns the job's intermediate record count.
func (s *JobSpec) TotalRecords() int64 {
	var n int64
	for m := range s.Partitions {
		n += s.MapRecords(m)
	}
	return n
}

// Report is the outcome of one simulated job.
type Report struct {
	JobStart    sim.Time
	JobEnd      sim.Time
	MapPhaseEnd sim.Time   // last map task completion
	ShuffleEnd  sim.Time   // last reducer finished copying
	ReduceEnds  []sim.Time // per-reducer completion

	ShuffleBytes int64
	Counters     *mapreduce.Counters

	// Tasks is the job history: one event per task attempt.
	Tasks []TaskEvent
}

// ExecutionSeconds is the paper's metric: total job execution time.
func (r *Report) ExecutionSeconds() float64 { return (r.JobEnd - r.JobStart).Seconds() }

// MapPhaseSeconds is the time from job start to the last map completion.
func (r *Report) MapPhaseSeconds() float64 { return (r.MapPhaseEnd - r.JobStart).Seconds() }

// ReduceTailSeconds is the exposed time after the last map until job end.
func (r *Report) ReduceTailSeconds() float64 { return (r.JobEnd - r.MapPhaseEnd).Seconds() }
