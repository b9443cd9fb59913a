package kvbuf

import (
	"math/rand"
	"runtime"
	"testing"

	"mrmicro/internal/writable"
)

// teraKV builds TeraSort-shaped records — 10-byte keys, 30-byte values,
// BytesWritable key encoding — the paper's canonical sort workload.
func teraKV(n int, seed int64) (keys, vals [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([][]byte, n)
	vals = make([][]byte, n)
	for i := range keys {
		k := make([]byte, 10)
		v := make([]byte, 30)
		rng.Read(k)
		rng.Read(v)
		keys[i] = writable.Marshal(&writable.BytesWritable{Data: k})
		vals[i] = v
	}
	return keys, vals
}

// benchmarkSpill measures map-side collect+sort+spill throughput for one
// partition count: fill the buffer with a fixed record batch, spill, repeat.
func benchmarkSpill(b *testing.B, partitions int) {
	cmp, _ := writable.Comparator("BytesWritable")
	const n = 16384
	keys, vals := teraKV(n, 42)
	parts := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	var payload int64
	for i := range parts {
		parts[i] = rng.Intn(partitions)
		payload += int64(len(keys[i]) + len(vals[i]))
	}
	buf := NewSortBuffer(4<<20, partitions, cmp)
	defer buf.Release()
	if pf, ok := writable.PrefixExtractor("BytesWritable"); ok {
		buf.SetPrefixFunc(pf)
	}
	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if ok, err := buf.Add(parts[j], keys[j], vals[j]); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		buf.Spill()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkSpillTeraSortP1(b *testing.B)  { benchmarkSpill(b, 1) }
func BenchmarkSpillTeraSortP8(b *testing.B)  { benchmarkSpill(b, 8) }
func BenchmarkSpillTeraSortP64(b *testing.B) { benchmarkSpill(b, 64) }

// benchSortedSegments builds k segments of n sorted TeraSort-shaped records.
func benchSortedSegments(b *testing.B, k, n int) []*Segment {
	cmp, _ := writable.Comparator("BytesWritable")
	segs := make([]*Segment, k)
	for s := 0; s < k; s++ {
		keys, vals := teraKV(n, int64(s+1))
		buf := NewSortBuffer(16<<20, 1, cmp)
		for i := range keys {
			if ok, err := buf.Add(0, keys[i], vals[i]); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		out, _ := buf.Spill()
		segs[s] = out[0]
	}
	return segs
}

// BenchmarkReduceSideMerge48 measures the reduce-side sort: merging 48 map
// outputs (what a 48-map job hands each reducer) into one record stream.
func BenchmarkReduceSideMerge48(b *testing.B) {
	cmp, _ := writable.Comparator("BytesWritable")
	const k, n = 48, 1000
	segs := benchSortedSegments(b, k, n)
	var payload int64
	for _, s := range segs {
		payload += int64(s.Len())
	}
	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduceMergeForBench(cmp, segs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k*n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

// reduceMergeForBench is the merge strategy the real executor uses on the
// reduce side (kept as a seam so the benchmark tracks the production path):
// a single wide pass, since fetched segments are all in memory.
func reduceMergeForBench(cmp writable.RawComparator, segs []*Segment) (int, error) {
	count := 0
	_, err := MergeStream(cmp, segs, func(k, v []byte) error {
		count++
		return nil
	})
	return count, err
}

// BenchmarkCollectColdSlab measures collection into a buffer that starts
// cold: a fresh SortBuffer per iteration after two runtime.GC() calls have
// emptied every pool, which is the state each distrun worker and each map
// task that follows a collection starts in. 16 MiB of 2 KiB records per
// iteration. BenchmarkSpillTeraSort* refill one warm buffer and cannot see
// what first-touch growth costs.
func BenchmarkCollectColdSlab(b *testing.B) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	const n, keyLen = 8192, 1028
	rec := writable.Marshal(&writable.BytesWritable{Data: make([]byte, keyLen-4)})
	rec = append(rec, rec...)
	b.ReportAllocs()
	b.SetBytes(int64(n * len(rec)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		buf := NewSortBuffer(64<<20, 4, cmp)
		buf.SetPrefixFunc(pf)
		for j := 0; j < n; j++ {
			if ok, err := buf.Add(j&3, rec[:keyLen], rec[keyLen:]); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		b.StopTimer()
		buf.Release()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}
