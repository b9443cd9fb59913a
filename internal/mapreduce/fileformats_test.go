package mapreduce

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"mrmicro/internal/seqfile"
	"mrmicro/internal/writable"
)

func writeSeqFile(t *testing.T, path string, n int, keyf func(i int) string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := seqfile.NewWriter(f, "Text", "IntWritable")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(writable.NewText(keyf(i)), &writable.IntWritable{Value: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceFileInputSplitsPerFile(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		writeSeqFile(t, filepath.Join(dir, fmt.Sprintf("f%d.seq", i)), 10, func(j int) string {
			return fmt.Sprintf("k%d-%d", i, j)
		})
	}
	in := &SequenceFileInput{Paths: []string{dir}}
	splits, err := in.Splits(NewConf())
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("splits = %d, want 3 (one per file)", len(splits))
	}
	total := 0
	for _, s := range splits {
		if s.Length() <= 0 {
			t.Error("split has no length")
		}
		r, err := in.Reader(s, NewConf())
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			total++
		}
		r.Close()
	}
	if total != 30 {
		t.Errorf("records = %d, want 30", total)
	}
}

func TestSequenceFileInputMissingPath(t *testing.T) {
	in := &SequenceFileInput{Paths: []string{"/no/such/dir"}}
	if _, err := in.Splits(NewConf()); err == nil {
		t.Error("missing path accepted")
	}
	in2 := &SequenceFileInput{Paths: []string{t.TempDir()}}
	if _, err := in2.Splits(NewConf()); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestSequenceFileOutputRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := &SequenceFileOutput{Dir: filepath.Join(dir, "out"), KeyClass: "Text", ValueClass: "IntWritable"}
	w, err := out.Writer(NewConf(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(writable.NewText("hello"), &writable.IntWritable{Value: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "out", "part-r-00002"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := seqfile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	k, v, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if k.(*writable.Text).String() != "hello" || v.(*writable.IntWritable).Value != 7 {
		t.Errorf("got %v=%v", k, v)
	}
}

func TestTotalOrderPartitionerRouting(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	cuts := [][]byte{
		writable.Marshal(writable.NewText("g")),
		writable.Marshal(writable.NewText("p")),
	}
	p, err := NewTotalOrderPartitioner(cmp, cuts)
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
	cmp, _ := writable.Comparator("Text")
	cuts := [][]byte{
		writable.Marshal(writable.NewText("p")),
		writable.Marshal(writable.NewText("g")),
	}
	if _, err := NewTotalOrderPartitioner(cmp, cuts); err == nil {
		t.Error("unsorted cut points accepted")
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
		p, err := NewTotalOrderPartitioner(cmp, cuts)
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
	dir := t.TempDir()
	// Keys 000..199 spread over two files.
	writeSeqFile(t, filepath.Join(dir, "a.seq"), 100, func(i int) string { return fmt.Sprintf("%03d", i*2) })
	writeSeqFile(t, filepath.Join(dir, "b.seq"), 100, func(i int) string { return fmt.Sprintf("%03d", i*2+1) })
	in := &SequenceFileInput{Paths: []string{dir}}
	cuts, err := SampleSplitPoints(in, NewConf(), "Text", 4, 1000)
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
// with heavy duplicates, for Text and BytesWritable (terasort's) keys.
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

func TestSampleSplitPointsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	writeSeqFile(t, filepath.Join(dir, "empty.seq"), 0, nil)
	in := &SequenceFileInput{Paths: []string{dir}}
	if _, err := SampleSplitPoints(in, NewConf(), "Text", 2, 10); err == nil {
		t.Error("empty input produced cut points")
	}
}
