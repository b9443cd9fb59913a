package xxh64

import (
	"encoding/binary"
	"hash"
	"math/rand"
	"strconv"
	"testing"
)

var _ hash.Hash64 = (*Digest)(nil)

// TestPublishedVectors holds Sum64 and a one-Write Digest to XXH64 values
// published for seed 0.
func TestPublishedVectors(t *testing.T) {
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := Sum64([]byte(v.in)); got != v.want {
			t.Errorf("Sum64(%q) = %016x, want %016x", v.in, got, v.want)
		}
		d := New()
		d.Write([]byte(v.in))
		if got := d.Sum64(); got != v.want {
			t.Errorf("Digest(%q) = %016x, want %016x", v.in, got, v.want)
		}
		if got, want := string(d.Sum([]byte("x"))), string(binary.BigEndian.AppendUint64([]byte("x"), v.want)); got != want {
			t.Errorf("Sum(%q) = %x, want %x", v.in, got, want)
		}
	}
}

// splitSum streams b through one Digest, cut at the given points.
func splitSum(d *Digest, b []byte, cuts []int) uint64 {
	d.Reset()
	prev := 0
	for _, c := range cuts {
		c = min(max(c, prev), len(b))
		d.Write(b[prev:c])
		prev = c
	}
	d.Write(b[prev:])
	return d.Sum64()
}

// TestStreamingMatchesSum64: every length 0–300 reaches each stripe edge and
// each tail branch (8, 4 and 1 bytes); streaming over random splits, byte
// by byte, and after a Reset must all equal the one-shot Sum64.
func TestStreamingMatchesSum64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 300)
	rng.Read(data)
	d := New()
	for n := 0; n <= len(data); n++ {
		b := data[:n]
		want := Sum64(b)
		bytewise := make([]int, n)
		for i := range bytewise {
			bytewise[i] = i
		}
		if got := splitSum(d, b, bytewise); got != want {
			t.Fatalf("len %d byte by byte: %016x, Sum64 %016x", n, got, want)
		}
		for trial := 0; trial < 8; trial++ {
			cuts := make([]int, rng.Intn(5))
			for i := range cuts {
				cuts[i] = rng.Intn(n + 1)
			}
			if got := splitSum(d, b, cuts); got != want {
				t.Fatalf("len %d cuts %v: %016x, Sum64 %016x", n, cuts, got, want)
			}
		}
	}
}

// FuzzSum64Split: for fuzzed bytes and fuzzed split points, streaming
// equals the one-shot hash.
func FuzzSum64Split(f *testing.F) {
	f.Add([]byte(""), 0, 0)
	f.Add([]byte("Nobody inspects the spammish repetition"), 5, 33)
	f.Add(make([]byte, 100), 31, 64)
	f.Fuzz(func(t *testing.T, b []byte, c1, c2 int) {
		if c1 < 0 || c2 < 0 {
			return
		}
		want := Sum64(b)
		if got := splitSum(New(), b, []int{c1, c2}); got != want {
			t.Fatalf("len %d cuts %d,%d: %016x, Sum64 %016x", len(b), c1, c2, got, want)
		}
	})
}

func TestAllocatesNothing(t *testing.T) {
	b := make([]byte, 1000)
	d := New()
	if n := testing.AllocsPerRun(100, func() { Sum64(b) }); n != 0 {
		t.Errorf("Sum64: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Write(b[:77]) }); n != 0 {
		t.Errorf("Digest.Write: %v allocs", n)
	}
}

// BenchmarkSum64 hashes a 48-byte row, the HS pipeline's record size, and
// a 256 KiB chunk, DirDigest's read size.
func BenchmarkSum64(b *testing.B) {
	for _, n := range []int{48, 256 << 10} {
		data := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(data)
		b.Run(strconv.Itoa(n)+"B", func(b *testing.B) {
			b.SetBytes(int64(n))
			for b.Loop() {
				Sum64(data)
			}
		})
	}
}
