package deflate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// stdlibBestSpeed is the oracle: the bytes compress/flate writes at
// BestSpeed for one Write of src and a Close.
func stdlibBestSpeed(tb testing.TB, src []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(src); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// shapes are the inputs the oracle is checked on: incompressible bytes,
// one repeated byte (every match runs to 258), short periods (matches at
// small offsets), sparse noise on zeros (short literal runs between long
// matches) and the suite's generator records (a random key and a constant
// value, one record after another).
var shapes = []struct {
	name string
	fill func(rng *rand.Rand, b []byte)
}{
	{"random", func(rng *rand.Rand, b []byte) { rng.Read(b) }},
	{"const", func(_ *rand.Rand, b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}},
	{"period", func(rng *rand.Rand, b []byte) {
		p := make([]byte, 1+rng.Intn(40))
		rng.Read(p)
		for i := range b {
			b[i] = p[i%len(p)]
		}
	}},
	{"sparse", func(rng *rand.Rand, b []byte) {
		for i := range b {
			if rng.Intn(97) == 0 {
				b[i] = byte(rng.Intn(256))
			}
		}
	}},
	{"records", func(rng *rand.Rand, b []byte) {
		for i := 0; i < len(b); i += 512 {
			rng.Read(b[i:min(i+16, len(b))])
			for j := i + 256; j < min(i+512, len(b)); j++ {
				b[j] = 'v'
			}
		}
	}},
}

const B = maxStoreBlockSize

// sizes sit on every edge the driver cuts at: the stored (≤16) and
// Huffman-only (<128) rules for the last block, and the block size.
var sizes = []int{0, 1, 2, 15, 16, 17, 18, 127, 128, 129, 4096,
	B - 1, B, B + 1, B + 16, B + 17, B + 127, B + 128,
	2*B - 1, 2 * B, 2*B + 1, 2*B + 16, 2*B + 17, 3 << 20}

func input(shape, n int, seed int64) []byte {
	b := make([]byte, n)
	shapes[shape].fill(rand.New(rand.NewSource(seed)), b)
	return b
}

func checkSame(t *testing.T, what string, src, got []byte) {
	t.Helper()
	if want := stdlibBestSpeed(t, src); !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes in, %d bytes out, compress/flate writes %d (first difference at %d)",
			what, len(src), len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func TestMatchesStdlib(t *testing.T) {
	for si, sh := range shapes {
		for _, n := range sizes {
			src := input(si, n, int64(n))
			checkSame(t, fmt.Sprintf("%s/%d", sh.name, n), src, AppendBestSpeed(nil, src))
		}
	}
}

// TestAppendsToDst: the stream goes after whatever dst holds, and dst's
// bytes are left alone.
func TestAppendsToDst(t *testing.T) {
	src := input(4, 2*B+300, 7)
	prefix := []byte("header")
	got := AppendBestSpeed(append(make([]byte, 0, 8), prefix...), src)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("dst's bytes were overwritten: %q", got[:len(prefix)])
	}
	checkSame(t, "after a prefix", src, got[len(prefix):])
}

// TestReusedEncoderMatchesFreshWriter runs one encoder over calls of
// different sizes and shapes: what a call leaves in the match table or the
// bit writer must not reach the next call's output.
func TestReusedEncoderMatchesFreshWriter(t *testing.T) {
	e := encoders.New().(*encoder)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		si, n := rng.Intn(len(shapes)), sizes[rng.Intn(len(sizes)-1)]
		src := input(si, n, int64(i))
		checkSame(t, fmt.Sprintf("call %d (%s/%d)", i, shapes[si].name, n), src, e.encode(nil, src))
	}
}

// TestShiftOffsetsWrap starts the match offset just short of bufferReset, so
// shiftOffsets rewrites the table in the middle of a call, with the previous
// block still referenced; the output must not notice.
func TestShiftOffsetsWrap(t *testing.T) {
	for _, back := range []int32{0, 1, B / 2, B, B + 1, 3 * B / 2, 2 * B} {
		for si, sh := range shapes {
			e := encoders.New().(*encoder)
			e.fast.cur = bufferReset - maxMatchOffset - back
			src := input(si, 4*B+100, int64(back))
			checkSame(t, fmt.Sprintf("%s, %d short of the reset", sh.name, back), src, e.encode(nil, src))
			if e.fast.cur >= bufferReset-maxMatchOffset {
				t.Fatalf("%s, %d short of the reset: offsets never shifted (cur %d)", sh.name, back, e.fast.cur)
			}
		}
	}
}

// TestConcurrentCalls compresses from several goroutines at once through
// the pool, as concurrently spilling maps do; run it under -race.
func TestConcurrentCalls(t *testing.T) {
	srcs := make([][]byte, 8)
	want := make([][]byte, len(srcs))
	for i := range srcs {
		srcs[i] = input(i%len(shapes), B+1000*i, int64(i))
		want[i] = stdlibBestSpeed(t, srcs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i, src := range srcs {
					if got := AppendBestSpeed(nil, src); !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d, input %d: output differs from compress/flate at byte %d", g, i, firstDiff(got, want[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeepsNoReference: after a call, neither the encoder's fields nor the
// pool hold the caller's src or dst.
func TestKeepsNoReference(t *testing.T) {
	e := encoders.New().(*encoder)
	src := input(4, 3*B+200, 1)
	e.encode(make([]byte, 0, 1<<16), src)
	if e.dst != nil || e.fast.prev != nil {
		t.Fatalf("encoder kept caller bytes: dst %d bytes, prev %d bytes", len(e.dst), len(e.fast.prev))
	}

	src = input(4, 3*B+200, 2)
	dst := make([]byte, 0, 1<<16)
	srcGone, dstGone := weak.Make(&src[0]), weak.Make(&dst[:1][0])
	out := AppendBestSpeed(dst, src)
	checkSame(t, "through the pool", src, out)
	src, dst, out = nil, nil, nil
	runtime.GC()
	runtime.GC()
	if srcGone.Value() != nil || dstGone.Value() != nil {
		t.Fatalf("pooled state still reaches the caller's bytes (src live %v, dst live %v)",
			srcGone.Value() != nil, dstGone.Value() != nil)
	}
}

// FuzzMatchesStdlib holds the encoder to compress/flate byte for byte. size,
// when set, repeats data up to that many bytes (zeros if data is empty), so
// short fuzz inputs still reach the block edges and the long matches that
// repeated records make.
func FuzzMatchesStdlib(f *testing.F) {
	f.Add([]byte("hello, hello, hello"), uint32(0))
	f.Add(input(0, 300, 1), uint32(0))
	f.Add(input(2, 64, 2), uint32(B+17))
	f.Add(input(4, 512, 3), uint32(2*B))
	f.Add([]byte{}, uint32(B+127))
	f.Fuzz(func(t *testing.T, data []byte, size uint32) {
		src := data
		if size != 0 {
			src = make([]byte, size%(4*B))
			for i := 0; len(data) > 0 && i < len(src); i += len(data) {
				copy(src[i:], data)
			}
		}
		checkSame(t, "fuzzed input", src, AppendBestSpeed(nil, src))
	})
}

func BenchmarkAppendBestSpeed(b *testing.B) {
	for si, sh := range shapes {
		src := input(si, 4<<20, 1)
		b.Run(sh.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			dst := make([]byte, 0, len(src)+len(src)/8)
			for i := 0; i < b.N; i++ {
				dst = AppendBestSpeed(dst[:0], src)
			}
		})
	}
}
