package kvbuf

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
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

// BenchmarkCollectSpillAvg1K measures one avg-1k map's collect and spill
// together: 16 384 records of 1 KiB BytesWritable keys and values dealt
// round-robin over 4 partitions, one key per partition, in a buffer of the
// default io.sort.mb. Every partition stays in key order, so the proof and
// the checksum fold move from the spill into collect, and this is where
// the move shows.
func BenchmarkCollectSpillAvg1K(b *testing.B) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	const n, partitions = 16384, 4
	var keys [partitions][]byte
	for p := range keys {
		keys[p] = writable.Marshal(&writable.BytesWritable{Data: bytes.Repeat([]byte{byte(p)}, 1<<10)})
	}
	val := writable.Marshal(&writable.BytesWritable{Data: bytes.Repeat([]byte{0x56}, 1<<10)})
	buf := NewSortBuffer(100<<20, partitions, cmp)
	defer buf.Release()
	buf.SetPrefixFunc(pf)
	b.ReportAllocs()
	b.SetBytes(int64(n * (len(keys[0]) + len(val))))
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if ok, err := buf.Add(j%partitions, keys[j%partitions], val); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		segs, _ := buf.Spill()
		for _, s := range segs {
			s.Recycle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

// rand10BKV builds the rand-10b record shape: n 10-byte Text keys drawn from
// four distinct ones (no more distinct keys than reducers, the paper's
// small-record regime), one 10-byte Text value, and a random partition of
// four per record.
func rand10BKV(n int) (keys [][]byte, val []byte, parts []int) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	distinct := make([][]byte, 4)
	for k := range distinct {
		distinct[k] = textKey(alphabet[k : k+10])
	}
	rng := rand.New(rand.NewSource(7))
	keys, parts = make([][]byte, n), make([]int, n)
	for i := range keys {
		keys[i], parts[i] = distinct[i%4], rng.Intn(4)
	}
	return keys, textKey("0123456789"), parts
}

// BenchmarkSpillRand10B measures one rand-10b map's spill: 100 000 records
// over 4 partitions and 4 distinct keys, so every partition sorts into four
// long runs of equal keys.
func BenchmarkSpillRand10B(b *testing.B) {
	cmp, _ := writable.Comparator("Text")
	pf, _ := writable.PrefixExtractor("Text")
	const n = 100000
	keys, val, parts := rand10BKV(n)
	buf := NewSortBuffer(16<<20, 4, cmp)
	defer buf.Release()
	buf.SetPrefixFunc(pf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range keys {
			if ok, err := buf.Add(parts[j], keys[j], val); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		b.StartTimer()
		segs, _ := buf.Spill()
		for _, s := range segs {
			s.Recycle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

// BenchmarkSourceMergerRuns measures the reduce-side merge of rand-10b's
// shape: 8 sorted segments of 12 500 records, each four runs of one key.
func BenchmarkSourceMergerRuns(b *testing.B) {
	cmp, _ := writable.Comparator("Text")
	const ways, n = 8, 100000
	keys, val, _ := rand10BKV(n)
	segs := make([]*Segment, ways)
	var payload int64
	for s := range segs {
		buf := NewSortBuffer(16<<20, 1, cmp)
		for j := s * n / ways; j < (s+1)*n/ways; j++ {
			if ok, err := buf.Add(0, keys[j], val); err != nil || !ok {
				b.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		out, _ := buf.Spill()
		buf.Release()
		segs[s] = out[0]
		payload += int64(out[0].Len())
	}
	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := reduceMergeForBench(cmp, segs); err != nil || got != n {
			b.Fatalf("merged %d records, err %v", got, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

// BenchmarkMergeHSKeys merges 8 sorted segments of 20 000 random
// 10-character Text keys (HSSort's key shape) by the Text KeyOrder: nearly
// every decision is made by unequal prefixes, in no predictable direction.
// It is the benchmark behind KeyOrder.Compare's branch-free shape.
func BenchmarkMergeHSKeys(b *testing.B) {
	order, _ := writable.Order("Text")
	const alphabet = "+/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	const ways, per = 8, 20000
	rng := rand.New(rand.NewSource(1))
	segs := make([]*Segment, ways)
	for s := range segs {
		keys := make([]string, per)
		for i := range keys {
			k := make([]byte, 10)
			for j := range k {
				k[j] = alphabet[rng.Intn(len(alphabet))]
			}
			keys[i] = string(k)
		}
		slices.Sort(keys)
		w := NewWriter(per * 16)
		for _, k := range keys {
			w.Append(textKey(k), nil)
		}
		segs[s] = w.Close()
	}
	for b.Loop() {
		if _, _, err := Merge(order, segs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ways*per), "ns/rec")
}

// benchmarkReadSegment measures the fetch decoder over one segment as the
// shuffle sends it: the read into a pooled buffer and the CRC fold, then
// the run-marks frame behind the payload.
func benchmarkReadSegment(b *testing.B, seg *Segment) {
	payload := seg.Bytes()
	data := seg.AppendMarksFrame(bytes.Clone(payload))
	r := bytes.NewReader(data)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		s, err := ReadSegment(r, len(payload))
		if err != nil {
			b.Fatal(err)
		}
		if err := ReadMarksFrame(r, s); err != nil {
			b.Fatal(err)
		}
		s.Recycle()
	}
}

// BenchmarkReadSegmentAvg1K fetches an avg-1k map output: 4 MiB of
// records with one 1 KiB key and 1 KiB values, every record after the
// first a repeat, with three-byte vint headers.
func BenchmarkReadSegmentAvg1K(b *testing.B) {
	key, val := bytes.Repeat([]byte{'k'}, 1024), bytes.Repeat([]byte{'v'}, 1024)
	w := NewWriter(4 << 20)
	for w.Len() < 4<<20 {
		w.Append(key, val)
	}
	benchmarkReadSegment(b, w.Close())
}

// BenchmarkReadSegmentRand10B fetches a rand-10b map output's shape: 100 000
// records of 11-byte Text keys, runs of one key, one-byte vint headers,
// every record but the first of a run marked by the spill.
func BenchmarkReadSegmentRand10B(b *testing.B) {
	cmp, _ := writable.Comparator("Text")
	keys, val, _ := rand10BKV(100000)
	buf := NewSortBuffer(16<<20, 1, cmp)
	defer buf.Release()
	for _, k := range keys {
		if ok, err := buf.Add(0, k, val); err != nil || !ok {
			b.Fatalf("add: ok=%v err=%v", ok, err)
		}
	}
	segs, _ := buf.Spill()
	benchmarkReadSegment(b, segs[0])
}

// BenchmarkReadSegmentHS fetches an HSSort map output's shape: 100 000
// sorted random 10-character Text keys, no two alike, so nothing is marked,
// with 90-byte Text values.
func BenchmarkReadSegmentHS(b *testing.B) {
	const alphabet = "+/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 100000)
	for i := range keys {
		k := make([]byte, 10)
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		keys[i] = string(k)
	}
	slices.Sort(keys)
	val := textKey(string(bytes.Repeat([]byte{'v'}, 89)))
	w := NewWriter(len(keys) * 104)
	for _, k := range keys {
		w.Append(textKey(k), val)
	}
	benchmarkReadSegment(b, w.Close())
}
