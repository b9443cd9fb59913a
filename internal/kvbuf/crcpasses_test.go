package kvbuf_test

import (
	"sync/atomic"
	"testing"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// TestShuffledBytesAreChecksummedOncePerSide is the guard against a third
// pass coming back: over a clean avg-shaped job, every shuffled segment body
// goes through the CRC exactly twice — when the map side seals it and while
// the reduce side streams it in — and the merge re-scans nothing. With
// deflate on the wire it is the same two passes over the same raw bytes
// (before compression, after decompression).
func TestShuffledBytesAreChecksummedOncePerSide(t *testing.T) {
	cfg := microbench.Config{
		Pattern: microbench.MRAvg, DataType: "BytesWritable", KeySize: 256, ValueSize: 256,
		PairsPerMap: 512, NumMaps: 4, NumReduces: 2, ParallelCopies: 2, Seed: 3,
	}
	run := func(codec string) (folded, shuffleBytes int64) {
		t.Helper()
		cfg := cfg
		cfg.Codec = codec
		job, err := microbench.BuildJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		restore := kvbuf.ObserveCRC(func(k int) { n.Add(int64(k)) })
		res, err := localrun.Run(job, &localrun.Options{ParallelCopies: cfg.ParallelCopies})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters.Task(mapreduce.CtrSpilledRecords); got != int64(cfg.NumMaps)*cfg.PairsPerMap {
			t.Fatalf("SPILLED_RECORDS %d: the job was meant to spill each record once", got)
		}
		return n.Load(), res.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	}

	folded, wire := run("")
	// Every raw segment is its body plus a 4-byte trailer the CRC never covers.
	bodies := wire - 4*int64(cfg.NumMaps*cfg.NumReduces)
	if folded != 2*bodies {
		t.Errorf("plain shuffle: %d bytes checksummed for %d shuffled body bytes, want exactly 2x (seal + fetch) = %d",
			folded, bodies, 2*bodies)
	}
	foldedZ, wireZ := run("deflate")
	if wireZ >= wire {
		t.Fatalf("deflate moved %d wire bytes, plain %d: codec not applied", wireZ, wire)
	}
	if foldedZ != 2*bodies {
		t.Errorf("deflate shuffle: %d bytes checksummed, want the same 2 x %d raw body bytes", foldedZ, bodies)
	}
}
