package kvbuf

import (
	"bytes"
	"math/rand"
	"testing"

	"mrmicro/internal/writable"
)

// benchSegmentFor builds one sorted single-partition segment of n records
// with 10-byte keys and 30-byte values. fill writes each value: random bytes
// are deflate's worst case (stored blocks, wire/raw ~0.9 — only the keys
// resist), constant bytes leave only the keys to break matches (wire/raw
// ~0.26). Either way the 10 random key bytes end every match within 40
// bytes, so these two never see the long matches of the suite's own records
// (BenchmarkCodecCompressDeflateGenerator).
func benchSegmentFor(b *testing.B, n int, fill func(*rand.Rand, []byte)) *Segment {
	rng := rand.New(rand.NewSource(42))
	return spillOne(b, n, func(k, v []byte) ([]byte, []byte) {
		k, v = k[:10], v[:30]
		rng.Read(k)
		fill(rng, v)
		return k, v
	})
}

// spillOne spills n records, each key and value drawn by next into 256-byte
// scratch, through a SortBuffer as one BytesWritable-keyed partition.
func spillOne(b *testing.B, n int, next func(k, v []byte) ([]byte, []byte)) *Segment {
	b.Helper()
	cmp, _ := writable.Comparator("BytesWritable")
	buf := NewSortBuffer(16<<20, 1, cmp)
	defer buf.Release()
	var kb, vb [256]byte
	for i := 0; i < n; i++ {
		k, v := next(kb[:], vb[:])
		key := writable.Marshal(&writable.BytesWritable{Data: k})
		if ok, err := buf.Add(0, key, v); err != nil || !ok {
			b.Fatalf("add: ok=%v err=%v", ok, err)
		}
	}
	out, _ := buf.Spill()
	return out[0]
}

func randomFill(rng *rand.Rand, v []byte) { rng.Read(v) }
func zeroFill(*rand.Rand, []byte)         {}

// benchmarkCodecCompress measures map-output compression throughput in raw
// (uncompressed) MB/s, the rate a map task pays as it registers its output.
func benchmarkCodecCompress(b *testing.B, seg *Segment) {
	comp := CompressSegmentWith(seg, Deflate)
	ratio := float64(comp.Len()) / float64(seg.Len())
	comp.Recycle()
	b.ReportAllocs()
	b.SetBytes(int64(seg.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := CompressSegmentWith(seg, Deflate)
		c.Recycle()
	}
	b.ReportMetric(ratio, "wire/raw")
}

func BenchmarkCodecCompressDeflateRandom(b *testing.B) {
	benchmarkCodecCompress(b, benchSegmentFor(b, 16384, randomFill))
}

func BenchmarkCodecCompressDeflateConst(b *testing.B) {
	benchmarkCodecCompress(b, benchSegmentFor(b, 16384, zeroFill))
}

// BenchmarkCodecCompressDeflateGenerator is the partition the suite's
// generator shuffles (microbench's makePair): 8 192 records of one key, a
// 256 B BytesWritable filled with its key index, and a 256 B constant value.
// Nearly every match runs to deflate's 258-byte maximum.
func BenchmarkCodecCompressDeflateGenerator(b *testing.B) {
	benchmarkCodecCompress(b, spillOne(b, 8192, func(k, v []byte) ([]byte, []byte) {
		for i := range k {
			k[i], v[i] = 3, 0x56
		}
		return k, v
	}))
}

// BenchmarkCodecStreamRead measures the fetch-side streaming path: inflate
// fused with the IFile CRC verify in fixed-size chunks, as segmentFetcher
// consumes wire bytes.
func BenchmarkCodecStreamRead(b *testing.B) {
	seg := benchSegmentFor(b, 16384, zeroFill)
	comp := CompressSegmentWith(seg, Deflate)
	b.ReportAllocs()
	b.SetBytes(int64(seg.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := ReadCompressedSegment(bytes.NewReader(comp.Bytes()), comp.Len())
		if err != nil {
			b.Fatal(err)
		}
		raw.Recycle()
	}
}
