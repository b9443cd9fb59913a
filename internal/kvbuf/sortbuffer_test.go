package kvbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"mrmicro/internal/writable"
)

// spillRec is one record of a spill-oracle input.
type spillRec struct {
	part     int
	key, val []byte
}

// naiveSpill is the reference Spill is held to: sort everything, stably,
// with the full comparator and nothing else, then write each partition out.
func naiveSpill(cmp writable.RawComparator, partitions int, recs []spillRec) [][]byte {
	sorted := append([]spillRec(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].part != sorted[j].part {
			return sorted[i].part < sorted[j].part
		}
		return cmp(sorted[i].key, sorted[j].key) < 0
	})
	ws := make([]*Writer, partitions)
	for p := range ws {
		ws[p] = NewWriter(0)
	}
	for _, r := range sorted {
		ws[r.part].Append(r.key, r.val)
	}
	out := make([][]byte, partitions)
	for p, w := range ws {
		out[p] = w.Close().Bytes()
	}
	return out
}

// spillShapes are key generators chosen to break a prefix sort: each returns
// the i-th key's payload.
var spillShapes = []struct {
	name    string
	payload func(rng *rand.Rand, i int) []byte
}{
	{"shared-prefix-differing-tails", func(rng *rand.Rand, _ int) []byte {
		// All keys agree on the first 8 payload bytes; order lives in a tail
		// of varying length, with plenty of exact duplicates.
		return append([]byte("prefix00"), fmt.Sprintf("%0*d", 1+rng.Intn(3), rng.Intn(40))...)
	}},
	{"all-equal", func(*rand.Rand, int) []byte { return []byte("the-one-and-only-key") }},
	{"few-distinct", func(rng *rand.Rand, _ int) []byte {
		// The paper's regime: no more distinct keys than reducers.
		return []byte(fmt.Sprintf("key-%d-padding", rng.Intn(4)))
	}},
	{"mixed-short", func(rng *rand.Rand, _ int) []byte {
		// Lengths 0..7: a zero-padded prefix ties "a" with "a\x00".
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = byte(rng.Intn(3))
		}
		return b
	}},
	{"prefix-of-each-other", func(rng *rand.Rand, _ int) []byte {
		return bytes.Repeat([]byte{'z'}, 6+rng.Intn(6))
	}},
	{"random", func(rng *rand.Rand, _ int) []byte {
		b := make([]byte, 1+rng.Intn(14))
		rng.Read(b)
		return b
	}},
	{"descending", func(_ *rand.Rand, i int) []byte { return []byte(fmt.Sprintf("%09d", 1<<20-i)) }},
}

// TestSpillMatchesNaiveSort holds Spill byte-identical to naiveSpill over
// adversarial key sets, for prefix-extracted key types and for a buffer with
// no extractor, across partition layouts that include empty and one-record
// partitions, spilling sequentially and in parallel.
func TestSpillMatchesNaiveSort(t *testing.T) {
	keyTypes := []struct {
		name   string
		encode func(payload []byte) []byte
	}{
		{"Text", func(p []byte) []byte {
			// Raw bytes are fine: the comparator is bytewise and nothing here
			// decodes the payload as UTF-8.
			o := writable.NewDataOutput(len(p) + 2)
			o.WriteVInt(int32(len(p)))
			o.Write(p)
			return o.Bytes()
		}},
		{"BytesWritable", func(p []byte) []byte { return writable.Marshal(&writable.BytesWritable{Data: p}) }},
	}
	layouts := []struct {
		name       string
		partitions int
		partition  func(rng *rand.Rand, i int) int
	}{
		{"one-partition", 1, func(*rand.Rand, int) int { return 0 }},
		// Partition 0 stays empty, partition 1 gets exactly one record.
		{"empty-and-singleton", 5, func(rng *rand.Rand, i int) int {
			if i == 0 {
				return 1
			}
			return 2 + rng.Intn(3)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, kt := range keyTypes {
			cmp, err := writable.Comparator(kt.name)
			if err != nil {
				t.Fatal(err)
			}
			pf, ok := writable.PrefixExtractor(kt.name)
			if !ok {
				t.Fatalf("%s has no prefix extractor", kt.name)
			}
			for _, withPrefix := range []bool{true, false} {
				for _, shape := range spillShapes {
					for _, lay := range layouts {
						// Past parallelSpillRecords, so GOMAXPROCS 2 fans out.
						for _, n := range []int{0, 1, 300, parallelSpillRecords + 500} {
							name := fmt.Sprintf("procs=%d/%s/prefix=%v/%s/%s/n=%d", procs, kt.name, withPrefix, shape.name, lay.name, n)
							rng := rand.New(rand.NewSource(int64(n) + 17))
							recs := make([]spillRec, n)
							for i := range recs {
								recs[i] = spillRec{
									part: lay.partition(rng, i),
									key:  kt.encode(shape.payload(rng, i)),
									val:  []byte(fmt.Sprintf("v%d", i)), // insertion order is visible in the bytes
								}
							}
							buf := NewSortBuffer(4<<20, lay.partitions, cmp)
							if withPrefix {
								buf.SetPrefixFunc(pf)
							}
							for _, r := range recs {
								if ok, err := buf.Add(r.part, r.key, r.val); err != nil || !ok {
									t.Fatalf("%s: Add: ok=%v err=%v", name, ok, err)
								}
							}
							segs, _ := buf.Spill()
							buf.Release()
							want := naiveSpill(cmp, lay.partitions, recs)
							for p := range want {
								if !bytes.Equal(segs[p].Bytes(), want[p]) {
									t.Fatalf("%s: partition %d differs from the naive stable sort", name, p)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSpillComparisonsDeterministic: the comparison count is a reported
// metric, so it must not depend on how many goroutines the spill used.
func TestSpillComparisonsDeterministic(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var counts []int64
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(5))
		buf := NewSortBuffer(4<<20, 4, cmp)
		buf.SetPrefixFunc(pf)
		for i := 0; i < 2*parallelSpillRecords; i++ {
			key := mkBytesWritable(fmt.Sprintf("shared-prefix-%03d", rng.Intn(50)))
			if ok, err := buf.Add(rng.Intn(4), key, nil); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}
		_, comps := buf.Spill()
		buf.Release()
		counts = append(counts, comps)
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Errorf("comparisons at GOMAXPROCS 1 and 2 = %v, want equal and nonzero", counts)
	}
}

// put buffers one record through either face of the reserve/commit
// primitive: Add for bytes already serialised, or Reserve, two writes and
// Commit, as a collector serialising straight into the slab does.
func put(buf *SortBuffer, direct bool, r spillRec) (bool, error) {
	if !direct {
		return buf.Add(r.part, r.key, r.val)
	}
	out := buf.Reserve()
	out.Write(r.key)
	out.Write(r.val)
	return buf.Commit(r.part, len(r.key))
}

// bwKey is a BytesWritable key of exactly n serialised bytes (n >= 4) whose
// payload starts with tag, so keys of one size still sort apart.
func bwKey(n int, tag uint32) []byte {
	data := make([]byte, n-4)
	for i := 0; i < len(data) && i < 4; i++ {
		data[i] = byte(tag >> (24 - 8*i))
	}
	return writable.Marshal(&writable.BytesWritable{Data: data})
}

// TestChunkedSlabMatchesNaiveSort holds Spill to the naive stable sort for
// record sizes chosen against the chunk size: records that exactly fill a
// chunk, that overrun it by a byte, one larger than a chunk, and tiny and
// huge ones mixed — through Add and through Reserve/Commit, spilling
// sequentially and in parallel, on a fresh buffer and on one refilled after
// a Spill (warm chunks, including an oversized one left in the list).
func TestChunkedSlabMatchesNaiveSort(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	const quarter = slabChunkBytes / 4
	shapes := []struct {
		name string
		n    int
		size func(rng *rand.Rand, i int) (keyLen, valLen int)
	}{
		{"exactly-fills-a-chunk", 19, func(*rand.Rand, int) (int, int) { return quarter / 2, quarter / 2 }},
		{"overruns-a-chunk-by-one", 19, func(*rand.Rand, int) (int, int) { return quarter / 2, quarter/2 + 1 }},
		{"larger-than-a-chunk", 5, func(_ *rand.Rand, i int) (int, int) {
			if i == 2 {
				return 100, slabChunkBytes + 100
			}
			return 100, 1000
		}},
		{"key-larger-than-a-chunk", 3, func(*rand.Rand, int) (int, int) { return slabChunkBytes + 7, 0 }},
		{"mixed-tiny-and-huge", parallelSpillRecords + 300, func(rng *rand.Rand, i int) (int, int) {
			switch {
			case i%1500 == 7:
				return 40, 2*slabChunkBytes + rng.Intn(1000)
			case i%97 == 0:
				return 4 + rng.Intn(60), quarter + rng.Intn(quarter)
			}
			return 4 + rng.Intn(12), rng.Intn(24)
		}},
		{"empty-records", 50, func(*rand.Rand, int) (int, int) { return 4, 0 }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, shape := range shapes {
			for _, direct := range []bool{false, true} {
				name := fmt.Sprintf("procs=%d/%s/direct=%v", procs, shape.name, direct)
				rng := rand.New(rand.NewSource(int64(shape.n)))
				recs := make([]spillRec, shape.n)
				payload := 0
				for i := range recs {
					kl, vl := shape.size(rng, i)
					val := make([]byte, vl)
					if vl > 0 {
						val[0], val[vl-1] = byte(i), byte(i>>8) // insertion order is visible in the bytes
					}
					recs[i] = spillRec{part: rng.Intn(3), key: bwKey(kl, uint32(rng.Intn(8))), val: val}
					payload += kl + vl
				}
				want := naiveSpill(cmp, 3, recs)
				buf := NewSortBuffer(payload+len(recs)*MetaBytesPerRecord, 3, cmp)
				buf.SetPrefixFunc(pf)
				for round := 0; round < 2; round++ {
					for i, r := range recs {
						if ok, err := put(buf, direct, r); err != nil || !ok {
							t.Fatalf("%s round %d: record %d: ok=%v err=%v", name, round, i, ok, err)
						}
					}
					if got := buf.Used(); got != buf.Capacity() {
						t.Fatalf("%s round %d: Used() = %d, want payload + metadata = %d", name, round, got, buf.Capacity())
					}
					// The buffer is exactly full: not one more byte fits.
					if ok, err := put(buf, direct, spillRec{key: bwKey(4, 0)}); ok || err != nil {
						t.Fatalf("%s round %d: record accepted by a full buffer: ok=%v err=%v", name, round, ok, err)
					}
					segs, _ := buf.Spill()
					for p := range want {
						if !bytes.Equal(segs[p].Bytes(), want[p]) {
							t.Fatalf("%s round %d: partition %d differs from the naive stable sort", name, round, p)
						}
					}
				}
				buf.Release()
			}
		}
	}
}

// TestRecordLargerThanCapacityErrors: a record that cannot fit an empty
// buffer is an error on both faces, whatever the chunk size, and leaves the
// buffer usable.
func TestRecordLargerThanCapacityErrors(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	for _, capacity := range []int{1 << 10, slabChunkBytes + 1<<10} {
		for _, direct := range []bool{false, true} {
			buf := NewSortBuffer(capacity, 1, cmp)
			big := spillRec{key: bwKey(8, 1), val: make([]byte, capacity)}
			if ok, err := put(buf, direct, big); ok || err == nil {
				t.Errorf("capacity %d direct=%v: oversized record: ok=%v err=%v, want an error", capacity, direct, ok, err)
			}
			if buf.Records() != 0 || buf.Used() != 0 {
				t.Errorf("capacity %d direct=%v: rejected record left %d records, %d bytes", capacity, direct, buf.Records(), buf.Used())
			}
			small := spillRec{key: bwKey(8, 2), val: []byte("v")}
			if ok, err := put(buf, direct, small); !ok || err != nil {
				t.Errorf("capacity %d direct=%v: buffer unusable after the error: ok=%v err=%v", capacity, direct, ok, err)
			}
			segs, _ := buf.Spill()
			if got := segs[0].Records(); got != 1 {
				t.Errorf("capacity %d direct=%v: spilled %d records, want 1", capacity, direct, got)
			}
			buf.Release()
		}
	}
}

// TestSpillBoundariesGolden pins where a fixed record stream fills and
// crosses the spill threshold of a 3 MiB buffer. The indices were recorded
// from the single-slab buffer this one replaced: Used() charges record bytes
// and metadata, never chunk capacity, so how records fall into chunks must
// not move a spill boundary (localrun.spills, SPILLED_RECORDS and every
// spill-identity invariant hang off them).
func TestSpillBoundariesGolden(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	wantFull := []int{960, 2577, 4158}
	wantThreshold := []int{1652, 3267, 4822}
	for _, direct := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		buf := NewSortBuffer(3<<20, 2, cmp)
		var full, threshold []int
		for i := 0; i < 5000; i++ {
			kl := 4 + rng.Intn(200)
			vl := rng.Intn(5000)
			if i%400 == 399 {
				vl = 300000 + rng.Intn(100000)
			}
			r := spillRec{part: i & 1, key: bwKey(kl, uint32(i)), val: make([]byte, vl)}
			ok, err := put(buf, direct, r)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				full = append(full, i)
				buf.Spill()
				if ok, err := put(buf, direct, r); err != nil || !ok {
					t.Fatal(ok, err)
				}
			}
			// Alternate the two triggers a collector has: every other fill
			// runs to Add's refusal, the others seal at the 80 % threshold.
			if len(full) > len(threshold) && buf.ShouldSpill(0.8) {
				threshold = append(threshold, i)
				buf.Spill()
			}
		}
		buf.Release()
		if fmt.Sprint(full) != fmt.Sprint(wantFull) || fmt.Sprint(threshold) != fmt.Sprint(wantThreshold) {
			t.Errorf("direct=%v: buffer full before records %v, threshold crossed after %v; want %v and %v",
				direct, full, threshold, wantFull, wantThreshold)
		}
	}
}

// TestWarmBufferAddAllocatesNothing: a buffer keeps its chunks and metadata
// arrays across Spill and Reset, so refilling one costs no allocation at
// all — neither face of the primitive, and no chunk-boundary garbage for
// same-sized records.
func TestWarmBufferAddAllocatesNothing(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	const records = 3000 // ~6 chunks of 2 KiB records
	key, val := bwKey(1028, 1), make([]byte, 1028)
	for _, direct := range []bool{false, true} {
		buf := NewSortBuffer(16<<20, 4, cmp)
		buf.SetPrefixFunc(pf)
		fill := func() {
			if ok, err := put(buf, direct, spillRec{part: buf.Records() & 3, key: key, val: val}); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}
		for i := 0; i < records+10; i++ {
			fill()
		}
		for _, empty := range []struct {
			name string
			f    func()
		}{
			{"Spill", func() { buf.Spill() }},
			{"Reset", buf.Reset},
		} {
			empty.f()
			if avg := testing.AllocsPerRun(records, fill); avg != 0 {
				t.Errorf("direct=%v: %s then Add allocates %.2f times per record, want 0", direct, empty.name, avg)
			}
		}
		buf.Release()
	}
}
