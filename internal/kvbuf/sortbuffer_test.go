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
