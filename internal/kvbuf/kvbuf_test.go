package kvbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mrmicro/internal/writable"
)

func TestIFileRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Append([]byte("key1"), []byte("value-one"))
	w.Append([]byte(""), []byte("")) // empty key and value are legal
	w.Append([]byte("key3"), bytes.Repeat([]byte{0xAB}, 300))
	seg := w.Close()
	if seg.Records() != 3 {
		t.Fatalf("records = %d", seg.Records())
	}
	r := seg.NewReader()
	var got []string
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%s:%d", k, len(v)))
	}
	want := "[key1:9 :0 key3:300]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v, want %v", got, want)
	}
	if r.RecordsRead() != 3 {
		t.Errorf("records read = %d", r.RecordsRead())
	}
	// Idempotent EOF.
	if _, _, ok, err := r.Next(); ok || err != nil {
		t.Error("post-EOF Next should be (ok=false, nil)")
	}
}

func TestIFileChecksumDetectsCorruption(t *testing.T) {
	w := NewWriter(64)
	w.Append([]byte("k"), []byte("v"))
	seg := w.Close()
	data := append([]byte(nil), seg.Bytes()...)
	data[2] ^= 0xFF // flip a payload byte
	r := SegmentFromBytes(data).NewReader()
	for {
		_, _, ok, err := r.Next()
		if err != nil {
			return // corruption caught
		}
		if !ok {
			t.Fatal("corrupted segment passed checksum")
		}
	}
}

func TestIFileEmptySegment(t *testing.T) {
	seg := NewWriter(8).Close()
	r := seg.NewReader()
	_, _, ok, err := r.Next()
	if ok || err != nil {
		t.Errorf("empty segment: ok=%v err=%v", ok, err)
	}
}

func TestIFilePropertyRoundTrip(t *testing.T) {
	f := func(keys, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		w := NewWriter(64)
		for i := 0; i < n; i++ {
			w.Append(keys[i], vals[i])
		}
		r := w.Close().NewReader()
		for i := 0; i < n; i++ {
			k, v, ok, err := r.Next()
			if err != nil || !ok || !bytes.Equal(k, keys[i]) || !bytes.Equal(v, vals[i]) {
				return false
			}
		}
		_, _, ok, err := r.Next()
		return !ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortBufferSpillSortsByPartitionThenKey(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	b := NewSortBuffer(1<<20, 3, rawBytes(cmp))
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		p    int
		k, v string
	}
	var added []rec
	for i := 0; i < 200; i++ {
		r := rec{p: rng.Intn(3), k: fmt.Sprintf("key-%03d", rng.Intn(50)), v: fmt.Sprintf("val-%d", i)}
		added = append(added, r)
		ok, err := b.Add(r.p, mkBytesWritable(r.k), []byte(r.v))
		if err != nil || !ok {
			t.Fatalf("add failed: %v ok=%v", err, ok)
		}
	}
	segs, comps := b.Spill()
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	if comps <= 0 {
		t.Error("expected comparisons > 0")
	}
	if b.Records() != 0 || b.Used() != 0 {
		t.Error("buffer not reset after spill")
	}
	total := 0
	for p, seg := range segs {
		r := seg.NewReader()
		var prev []byte
		for {
			k, _, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if prev != nil && rawBytes(cmp)(prev, k) > 0 {
				t.Fatalf("partition %d not sorted", p)
			}
			prev = append(prev[:0], k...)
			total++
		}
		if seg.Records() != r.RecordsRead() {
			t.Error("record count mismatch")
		}
	}
	if total != len(added) {
		t.Errorf("spilled %d records, added %d", total, len(added))
	}
}

// rawBytes adapts a comparator (identity; kept for call-site clarity).
func rawBytes(c writable.RawComparator) writable.RawComparator { return c }

func mkBytesWritable(s string) []byte {
	return writable.Marshal(&writable.BytesWritable{Data: []byte(s)})
}

func TestSortBufferCapacity(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	b := NewSortBuffer(100, 1, cmp)
	// Record cost = len(k)+len(v)+16.
	ok, err := b.Add(0, make([]byte, 40), make([]byte, 40))
	if err != nil || !ok {
		t.Fatalf("first add: ok=%v err=%v", ok, err)
	}
	ok, err = b.Add(0, make([]byte, 40), make([]byte, 40))
	if err != nil || ok {
		t.Fatalf("second add should not fit: ok=%v err=%v", ok, err)
	}
	// Oversized single record errors.
	if _, err := b.Add(0, make([]byte, 200), nil); err == nil {
		t.Error("oversized record accepted")
	}
	// Bad partition errors.
	if _, err := b.Add(5, []byte("k"), nil); err == nil {
		t.Error("bad partition accepted")
	}
}

func TestSortBufferShouldSpill(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	b := NewSortBuffer(1000, 1, cmp)
	if b.ShouldSpill(0.8) {
		t.Error("empty buffer should not spill")
	}
	for i := 0; i < 10; i++ {
		b.Add(0, make([]byte, 34), make([]byte, 34)) // 84 bytes each
	}
	if !b.ShouldSpill(0.8) {
		t.Errorf("used %d of 1000 should pass 0.8 threshold", b.Used())
	}
}

func TestMergeProducesSortedUnion(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	rng := rand.New(rand.NewSource(7))
	var all []string
	var segs []*Segment
	for s := 0; s < 5; s++ {
		var keys []string
		for i := 0; i < 50; i++ {
			keys = append(keys, fmt.Sprintf("k%04d", rng.Intn(1000)))
		}
		sort.Strings(keys)
		w := NewWriter(64)
		for _, k := range keys {
			w.Append(mkBytesWritable(k), []byte("v"))
			all = append(all, k)
		}
		segs = append(segs, w.Close())
	}
	merged, comps, err := Merge(cmp, segs)
	if err != nil {
		t.Fatal(err)
	}
	if comps <= 0 {
		t.Error("no comparisons counted")
	}
	sort.Strings(all)
	r := merged.NewReader()
	for i := 0; ; i++ {
		k, _, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(all) {
				t.Errorf("merged %d records, want %d", i, len(all))
			}
			break
		}
		var kw writable.BytesWritable
		if err := writable.Unmarshal(k, &kw); err != nil {
			t.Fatal(err)
		}
		if string(kw.Data) != all[i] {
			t.Fatalf("record %d = %s, want %s", i, kw.Data, all[i])
		}
	}
}

func TestMergeMultisetProperty(t *testing.T) {
	// Property: merge output is a sorted permutation of the inputs.
	cmp, _ := writable.Comparator("BytesWritable")
	f := func(seed int64, nseg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ns := int(nseg%6) + 1
		counts := map[string]int{}
		var segs []*Segment
		for s := 0; s < ns; s++ {
			n := rng.Intn(30)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("%03d", rng.Intn(40))
			}
			sort.Strings(keys)
			w := NewWriter(32)
			for _, k := range keys {
				w.Append(mkBytesWritable(k), []byte{byte(rng.Intn(256))})
				counts[k]++
			}
			segs = append(segs, w.Close())
		}
		merged, _, err := Merge(cmp, segs)
		if err != nil {
			return false
		}
		var prev []byte
		r := merged.NewReader()
		for {
			k, _, ok, err := r.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if prev != nil && cmp(prev, k) > 0 {
				return false
			}
			prev = append(prev[:0], k...)
			var kw writable.BytesWritable
			if writable.Unmarshal(k, &kw) != nil {
				return false
			}
			counts[string(kw.Data)]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMergePasses(t *testing.T) {
	cases := []struct {
		n, factor int
		want      []int
	}{
		{5, 10, nil},        // fits in one final pass
		{10, 10, nil},       // exactly the factor
		{11, 10, []int{2}},  // one small first pass (rem=(11-1)%9=1 -> take 2), leaves 10
		{19, 10, []int{10}}, // (19-1)%9=0 -> take 10, leaves 10
		{100, 10, []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
		{3, 1, nil}, // factor clamped to 2, 3 > 2: pass
	}
	for _, c := range cases {
		got := MergePasses(c.n, c.factor)
		if c.n == 3 && c.factor == 1 {
			// clamped factor 2: (3-1)%1 == 0 -> take 2, leaves 2 -> done
			if len(got) != 1 || got[0] != 2 {
				t.Errorf("MergePasses(3,1) = %v", got)
			}
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("MergePasses(%d,%d) = %v, want %v", c.n, c.factor, got, c.want)
		}
	}
	// Invariant: applying the passes always ends with <= factor segments.
	for n := 1; n < 200; n++ {
		rem := n
		for _, take := range MergePasses(n, 10) {
			if take > 10 || take < 2 {
				t.Fatalf("n=%d: illegal pass size %d", n, take)
			}
			rem = rem - take + 1
		}
		if rem > 10 {
			t.Errorf("n=%d: %d segments left after passes", n, rem)
		}
	}
}

func BenchmarkSortBufferSpill(b *testing.B) {
	cmp, _ := writable.Comparator("BytesWritable")
	key := make([][]byte, 1024)
	for i := range key {
		key[i] = mkBytesWritable(fmt.Sprintf("key-%06d", i*7919%1024))
	}
	val := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := NewSortBuffer(1<<20, 8, cmp)
		for j := 0; j < 1024; j++ {
			buf.Add(j%8, key[j], val)
		}
		buf.Spill()
	}
}

func BenchmarkMerge10Segments(b *testing.B) {
	cmp, _ := writable.Comparator("BytesWritable")
	var segs []*Segment
	for s := 0; s < 10; s++ {
		w := NewWriter(1 << 12)
		for i := 0; i < 500; i++ {
			w.Append(mkBytesWritable(fmt.Sprintf("k%06d", i*10+s)), []byte("value"))
		}
		segs = append(segs, w.Close())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Merge(cmp, segs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompressSegmentRoundTrip(t *testing.T) {
	w := NewWriter(1 << 12)
	for i := 0; i < 200; i++ {
		w.Append(mkBytesWritable(fmt.Sprintf("key-%03d", i%10)), bytes.Repeat([]byte("v"), 50))
	}
	seg := w.Close()
	z, err := CompressSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Compressed() {
		t.Error("compressed flag unset")
	}
	if z.Len() >= seg.Len() {
		t.Errorf("compression grew repetitive data: %d -> %d", seg.Len(), z.Len())
	}
	back, err := z.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), seg.Bytes()) {
		t.Error("round trip mismatch")
	}
	// Record count survives compression.
	if z.Records() != seg.Records() {
		t.Error("record count lost")
	}
}

func TestCompressedSegmentReaderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic reading compressed segment")
		}
	}()
	w := NewWriter(16)
	w.Append([]byte("k"), []byte("v"))
	z, _ := CompressSegment(w.Close())
	z.NewReader()
}

func TestDecompressPlainIsIdentity(t *testing.T) {
	w := NewWriter(16)
	w.Append([]byte("k"), []byte("v"))
	seg := w.Close()
	same, err := seg.Decompress()
	if err != nil || same != seg {
		t.Error("plain segment decompress should be identity")
	}
}
