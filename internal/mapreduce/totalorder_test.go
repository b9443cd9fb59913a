package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mrmicro/internal/writable"
)

func TestTotalOrderPartitionerRouting(t *testing.T) {
	cuts := [][]byte{
		writable.Marshal(writable.NewText("g")),
		writable.Marshal(writable.NewText("p")),
	}
	p, err := NewTotalOrderPartitioner("Text", cuts)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{
		"a": 0, "f": 0, "g": 1, "h": 1, "o": 1, "p": 2, "z": 2,
	}
	for k, want := range cases {
		if got := p.Partition(writable.NewText(k), nil, 3); got != want {
			t.Errorf("partition(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestTotalOrderPartitionerRejectsUnsortedCuts(t *testing.T) {
	cuts := [][]byte{
		writable.Marshal(writable.NewText("p")),
		writable.Marshal(writable.NewText("g")),
	}
	if _, err := NewTotalOrderPartitioner("Text", cuts); err == nil {
		t.Error("unsorted cut points accepted")
	}
}

// TestTotalOrderPartitionerMatchesComparatorSearch holds the prefix-first
// search to sort.Search over the comparator alone, for Text and
// BytesWritable cut points several of which share their first 8 bytes (so
// their prefixes tie, a duplicate cut included): keys equal to a cut, tied
// with a cut's prefix on either side of it, below every cut, above every cut,
// and random keys over the same bytes.
func TestTotalOrderPartitionerMatchesComparatorSearch(t *testing.T) {
	cutKeys := []string{"b", "tie8key-", "tie8key-a", "tie8key-c", "tie8key-c", "tie8key-e", "zz"}
	probes := []string{"", "a", "b", "ba", "tie8key", "tie8key-", "tie8key-0", "tie8key-a", "tie8key-b",
		"tie8key-c", "tie8key-cc", "tie8key-d", "tie8key-e", "tie8key-f", "tie8key-zzzz", "tie8kez", "zz", "zz\x00", "zzz", "\xff"}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		b := []byte("tie8key-")[:rng.Intn(9)]
		for j := rng.Intn(3); j > 0; j-- {
			b = append(b, "-abcdez"[rng.Intn(7)])
		}
		probes = append(probes, string(b))
	}
	for _, keyType := range []string{"Text", "BytesWritable"} {
		box := func(s string) writable.Writable { return writable.NewText(s) }
		if keyType == "BytesWritable" {
			box = func(s string) writable.Writable { return &writable.BytesWritable{Data: []byte(s)} }
		}
		cmp, _ := writable.Comparator(keyType)
		cuts := make([][]byte, len(cutKeys))
		for i, k := range cutKeys {
			cuts[i] = writable.Marshal(box(k))
		}
		p, err := NewTotalOrderPartitioner(keyType, cuts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range probes {
			raw := writable.Marshal(box(k))
			want := sort.Search(len(cuts), func(i int) bool { return cmp(raw, cuts[i]) < 0 })
			if got := p.Partition(box(k), nil, len(cuts)+1); got != want {
				t.Errorf("%s: partition(%q) = %d, comparator search %d", keyType, k, got, want)
			}
		}
	}
}

func TestTotalOrderPreservesGlobalOrderProperty(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	f := func(keys [][]byte, r8 uint8) bool {
		if len(keys) < 4 {
			return true
		}
		R := int(r8%4) + 2
		// Build cut points from sorted raw keys.
		raws := make([][]byte, len(keys))
		for i, k := range keys {
			raws[i] = writable.Marshal(&writable.BytesWritable{Data: k})
		}
		sort.Slice(raws, func(i, j int) bool { return cmp(raws[i], raws[j]) < 0 })
		var cuts [][]byte
		for i := 1; i < R; i++ {
			cuts = append(cuts, raws[i*len(raws)/R])
		}
		p, err := NewTotalOrderPartitioner("BytesWritable", cuts)
		if err != nil {
			return false
		}
		// Property: partition index is monotone in key order.
		prev := -1
		for _, raw := range raws {
			var kw writable.BytesWritable
			if writable.Unmarshal(raw, &kw) != nil {
				return false
			}
			part := p.Partition(&kw, nil, R)
			if part < prev || part < 0 || part >= R {
				return false
			}
			prev = part
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleSplitPoints(t *testing.T) {
	// Keys 000..199, round-robin over two splits: the even keys in one, the
	// odd keys in the other.
	in := &SliceInput{}
	for i := 0; i < 200; i++ {
		in.Pairs = append(in.Pairs, Pair{Key: writable.NewText(fmt.Sprintf("%03d", i)), Value: &writable.LongWritable{Value: int64(i)}})
	}
	cuts, err := SampleSplitPoints(in, NewConf().SetInt(ConfNumMaps, 2), "Text", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %d, want 3", len(cuts))
	}
	cmp, _ := writable.Comparator("Text")
	for i := 1; i < len(cuts); i++ {
		if cmp(cuts[i-1], cuts[i]) > 0 {
			t.Error("cut points not sorted")
		}
	}
	// Roughly quartile keys.
	var mid writable.Text
	if err := writable.Unmarshal(cuts[1], &mid); err != nil {
		t.Fatal(err)
	}
	if s := mid.String(); s < "080" || s > "120" {
		t.Errorf("median cut = %q, want near 100", s)
	}
}

// TestSampleSplitPointsMatchesReference holds the arena sampler to the
// sort.Slice sampler it replaced, inlined here: the same samples (the first
// perSplit keys of each split, in split order), sorted by the raw
// comparator, cut at the same quantile indices — byte for byte, over keys
// with heavy duplicates, for Text and BytesWritable keys.
func TestSampleSplitPointsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keyTypes := []struct {
		name string
		gen  func() writable.Writable
	}{
		{"Text", func() writable.Writable {
			if rng.Intn(4) > 0 { // three in four keys are one of five
				return writable.NewText(fmt.Sprintf("dup%d", rng.Intn(5)))
			}
			return writable.NewText(fmt.Sprintf("u%06d", rng.Intn(1e6)))
		}},
		{"BytesWritable", func() writable.Writable {
			b := make([]byte, rng.Intn(4)) // short keys over three bytes repeat a lot
			for i := range b {
				b[i] = []byte{0, 1, 0xff}[rng.Intn(3)]
			}
			return &writable.BytesWritable{Data: b}
		}},
	}
	reference := func(in InputFormat, conf *Conf, keyType string, numReduces, maxSamples int) [][]byte {
		cmp, _ := writable.Comparator(keyType)
		splits, _ := in.Splits(conf)
		perSplit := (maxSamples + len(splits) - 1) / len(splits)
		var samples [][]byte
		for _, s := range splits {
			r, _ := in.Reader(s, conf)
			for i := 0; i < perSplit; i++ {
				k, _, ok, _ := r.Next()
				if !ok {
					break
				}
				samples = append(samples, writable.Marshal(k))
			}
		}
		sort.Slice(samples, func(i, j int) bool { return cmp(samples[i], samples[j]) < 0 })
		var cuts [][]byte
		for i := 1; i < numReduces; i++ {
			cuts = append(cuts, samples[i*len(samples)/numReduces])
		}
		return cuts
	}
	for _, kt := range keyTypes {
		keyType := kt.name
		in := &SliceInput{}
		for i := 0; i < 3000; i++ {
			in.Pairs = append(in.Pairs, Pair{Key: kt.gen(), Value: writable.NullWritable{}})
		}
		conf := NewConf().SetInt(ConfNumMaps, 3)
		for _, reduces := range []int{1, 2, 3, 4, 7, 16} {
			for _, maxSamples := range []int{10, 1000, 5000} {
				got, err := SampleSplitPoints(in, conf, keyType, reduces, maxSamples)
				if err != nil {
					t.Fatal(err)
				}
				want := reference(in, conf, keyType, reduces, maxSamples)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, %d reduces, %d samples: cuts %x, reference %x", keyType, reduces, maxSamples, got, want)
				}
			}
		}
	}
}

// noSplits is an input format whose Splits returns none.
type noSplits struct{ SliceInput }

func (*noSplits) Splits(*Conf) ([]InputSplit, error) { return nil, nil }

// TestSampleSplitPointsNoSplits: an input without splits has no records to
// sample, which is an error, not a division by zero.
func TestSampleSplitPointsNoSplits(t *testing.T) {
	_, err := SampleSplitPoints(&noSplits{}, NewConf(), "Text", 2, 10)
	if err == nil || !strings.Contains(err.Error(), "sampler saw no records") {
		t.Errorf("sampling an input without splits: err %v, want \"sampler saw no records\"", err)
	}
}

// fixedSplits serves splits computed once, so a benchmark times the sampler
// and not SliceInput's round-robin.
type fixedSplits struct {
	*SliceInput
	splits []InputSplit
}

func (f *fixedSplits) Splits(*Conf) ([]InputSplit, error) { return f.splits, nil }

// hsKeyInput is hs-pipeline's key shape: n random 10-character Text keys
// over four splits.
func hsKeyInput(n int) (*fixedSplits, *Conf) {
	const alphabet = "+/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	rng := rand.New(rand.NewSource(1))
	in := &SliceInput{}
	for i := 0; i < n; i++ {
		k := make([]byte, 10)
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in.Pairs = append(in.Pairs, Pair{Key: &writable.Text{Data: k}, Value: writable.NullWritable{}})
	}
	conf := NewConf().SetInt(ConfNumMaps, 4)
	splits, _ := in.Splits(conf)
	return &fixedSplits{SliceInput: in, splits: splits}, conf
}

// BenchmarkSampleSplitPoints samples hs-pipeline's shape: 100 000 random
// 10-character Text keys over four splits, cut for four reduces.
func BenchmarkSampleSplitPoints(b *testing.B) {
	fixed, conf := hsKeyInput(100000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SampleSplitPoints(fixed, conf, "Text", 4, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// hsPartitioner cuts hs-pipeline's keys for 16 reduces: the search every
// HSSort map record runs, against 15 cut points.
func hsPartitioner(tb testing.TB) (*TotalOrderPartitioner, []Pair) {
	in, conf := hsKeyInput(10000)
	cuts, err := SampleSplitPoints(in, conf, "Text", 16, 10000)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewTotalOrderPartitioner("Text", cuts)
	if err != nil {
		tb.Fatal(err)
	}
	return p, in.Pairs
}

// BenchmarkTotalOrderPartition routes one HS key per op.
func BenchmarkTotalOrderPartition(b *testing.B) {
	p, pairs := hsPartitioner(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		p.Partition(pairs[i].Key, nil, 16)
		if i++; i == len(pairs) {
			i = 0
		}
	}
}

// TestTotalOrderPartitionAllocatesNothing guards the per-record search:
// Partition reuses its encoding buffer and allocates nothing.
func TestTotalOrderPartitionAllocatesNothing(t *testing.T) {
	p, pairs := hsPartitioner(t)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		p.Partition(pairs[i%len(pairs)].Key, nil, 16)
		i++
	}); avg != 0 {
		t.Errorf("Partition allocates %.2f times per key, want 0", avg)
	}
}

func TestSampleSplitPointsEmptyInput(t *testing.T) {
	if _, err := SampleSplitPoints(&SliceInput{}, NewConf(), "Text", 2, 10); err == nil {
		t.Error("empty input produced cut points")
	}
}
