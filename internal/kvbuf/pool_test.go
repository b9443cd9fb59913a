package kvbuf

import (
	"bytes"
	"fmt"
	"testing"

	"mrmicro/internal/writable"
)

func TestMergePassesDegenerate(t *testing.T) {
	// n <= factor: everything fits in the final pass, no intermediate plan.
	for _, n := range []int{0, 1, 2, 9, 10} {
		if got := MergePasses(n, 10); got != nil {
			t.Errorf("MergePasses(%d, 10) = %v, want nil", n, got)
		}
	}
	// factor <= 1 clamps to 2: the plan must still terminate and stay legal.
	for _, factor := range []int{-3, 0, 1} {
		for n := 0; n < 50; n++ {
			rem := n
			for _, take := range MergePasses(n, factor) {
				if take != 2 {
					t.Fatalf("MergePasses(%d, %d): pass size %d with clamped factor 2", n, factor, take)
				}
				rem = rem - take + 1
			}
			if rem > 2 {
				t.Errorf("MergePasses(%d, %d): %d segments left after passes", n, factor, rem)
			}
		}
	}
}

// segRecords reads a segment fully, formatting each record for comparison.
func segRecords(t *testing.T, seg *Segment) []string {
	t.Helper()
	var out []string
	r := seg.NewReader()
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%q=%q", k, v))
	}
}

// TestMergeAllMatchesSequentialMerge holds MergeAll to Merge's bytes. Half of
// every segment's keys tie across all segments and carry the segment index as
// value, so the order in which a multi-pass merge lets equal keys through is
// written into the output.
func TestMergeAllMatchesSequentialMerge(t *testing.T) {
	order, _ := writable.Order("BytesWritable")
	for k := 1; k <= 64; k++ {
		build := func() []*Segment {
			segs := make([]*Segment, k)
			for s := range segs {
				w := NewWriter(256)
				for i := 0; i < 4; i++ {
					w.Append(mkBytesWritable(fmt.Sprintf("k%02d", i)), []byte{byte(s)})
					w.Append(mkBytesWritable(fmt.Sprintf("k%02d-%02d", i, s)), []byte{byte(s)})
				}
				segs[s] = w.Close()
			}
			return segs
		}
		want, wantComps, err := Merge(writable.ByComparator(order.Cmp), build())
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []int{2, 3, 4, 10} {
			// The multi-pass merge must produce the same bytes for any
			// parallelism, and its comparison count must not depend on
			// scheduling.
			var seqComps int64
			for _, par := range []int{1, 4} {
				got, comps, err := MergeAll(order, build(), factor, par)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("k=%d factor=%d par=%d: MergeAll bytes diverge from Merge\n got %v\nwant %v",
						k, factor, par, segRecords(t, got), segRecords(t, want))
				}
				if k <= factor && comps != wantComps {
					t.Errorf("k=%d factor=%d: single-pass MergeAll did %d comparisons, Merge did %d", k, factor, comps, wantComps)
				}
				if par == 1 {
					seqComps = comps
				} else if comps != seqComps {
					t.Errorf("k=%d factor=%d: %d comparisons at parallelism %d, %d at 1", k, factor, comps, par, seqComps)
				}
			}
		}
	}
}

// TestSortBufferSpillReusesBuffersWithoutLeaking drives the pooled-slab
// lifecycle: spill, refill, spill again, recycle, and spill once more. A
// segment produced by one spill must stay byte-stable while later spills
// draw buffers from the pool, and a recycled buffer must never leak old
// records into a new spill's output.
func TestSortBufferSpillReusesBuffersWithoutLeaking(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	buf := NewSortBuffer(1<<20, 2, cmp)
	defer buf.Release()
	if pf, ok := writable.PrefixExtractor("BytesWritable"); ok {
		buf.SetPrefixFunc(pf)
	}

	fill := func(tag string) {
		for i := 0; i < 100; i++ {
			k := mkBytesWritable(fmt.Sprintf("%s-%03d", tag, i))
			if ok, err := buf.Add(i%2, k, []byte(tag)); err != nil || !ok {
				t.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
	}
	wantRecs := func(tag string, part int) []string {
		var out []string
		for i := part; i < 100; i += 2 {
			out = append(out, fmt.Sprintf("%q=%q", mkBytesWritable(fmt.Sprintf("%s-%03d", tag, i)), tag))
		}
		return out
	}
	check := func(tag string, segs []*Segment) {
		t.Helper()
		if len(segs) != 2 {
			t.Fatalf("spill(%s) produced %d segments, want 2", tag, len(segs))
		}
		for part, seg := range segs {
			if got, want := segRecords(t, seg), wantRecs(tag, part); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("spill(%s) partition %d: got %v, want %v", tag, part, got, want)
			}
		}
	}

	fill("first")
	first, _ := buf.Spill()
	if buf.Records() != 0 || buf.Used() != 0 {
		t.Fatalf("buffer not reset after spill: %d records, %d bytes", buf.Records(), buf.Used())
	}

	// The second spill reuses the buffer's internal arrays; it must not
	// disturb the first spill's still-live segments.
	fill("second")
	second, _ := buf.Spill()
	check("first", first)
	check("second", second)

	// Recycling the first spill's segments hands their slabs to the writer
	// pool. A third spill may be served from exactly those buffers, and its
	// output must contain only its own records.
	firstCopies := make([][]byte, len(first))
	for i, seg := range first {
		firstCopies[i] = bytes.Clone(seg.Bytes())
		seg.Recycle()
	}
	fill("third")
	third, _ := buf.Spill()
	check("third", third)
	check("second", second)
	// And recycling must not have corrupted the bytes we copied beforehand.
	for part, data := range firstCopies {
		if got, want := segRecords(t, adopt(data)), wantRecs("first", part); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("copied first-spill bytes changed after recycle+respill (partition %d)", part)
		}
	}
}

// TestSortBufferReleaseThenNewBuffer exercises the cross-buffer pool: a
// released buffer's arrays may back a newly constructed one, which must
// start empty and spill only what was added to it.
func TestSortBufferReleaseThenNewBuffer(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	old := NewSortBuffer(1<<20, 1, cmp)
	for i := 0; i < 50; i++ {
		if ok, err := old.Add(0, mkBytesWritable(fmt.Sprintf("old-%02d", i)), []byte("x")); err != nil || !ok {
			t.Fatalf("add: ok=%v err=%v", ok, err)
		}
	}
	old.Release()

	fresh := NewSortBuffer(1<<20, 1, cmp)
	defer fresh.Release()
	if fresh.Records() != 0 || fresh.Used() != 0 {
		t.Fatalf("fresh buffer not empty: %d records, %d bytes", fresh.Records(), fresh.Used())
	}
	if ok, err := fresh.Add(0, mkBytesWritable("new"), []byte("y")); err != nil || !ok {
		t.Fatalf("add: ok=%v err=%v", ok, err)
	}
	segs, _ := fresh.Spill()
	if got := segRecords(t, segs[0]); len(got) != 1 || got[0] != fmt.Sprintf("%q=%q", mkBytesWritable("new"), "y") {
		t.Fatalf("fresh buffer spilled %v", got)
	}
}
