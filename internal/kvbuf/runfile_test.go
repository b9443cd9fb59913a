package kvbuf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mrmicro/internal/writable"
)

func runTestSegment(t *testing.T, n int, tag byte) *Segment {
	t.Helper()
	w := NewWriter(n * 16)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k%06d", i*2))
		v := []byte{tag, byte(i)}
		w.Append(k, v)
	}
	return w.Close()
}

// Record is one copied-out key/value pair.
type Record struct{ Key, Val []byte }

func drainSource(t *testing.T, src RecordSource) []Record {
	t.Helper()
	var recs []Record
	for {
		k, v, ok, err := src.Next()
		if err != nil {
			t.Fatalf("source: %v", err)
		}
		if !ok {
			return recs
		}
		recs = append(recs, Record{Key: append([]byte(nil), k...), Val: append([]byte(nil), v...)})
	}
}

// TestRunReaderRoundTrip checks the streaming reader reproduces a segment's
// records byte for byte, raw and compressed.
func TestRunReaderRoundTrip(t *testing.T) {
	seg := runTestSegment(t, 500, 'a')
	want := drainSource(t, seg.NewReader())

	t.Run("raw", func(t *testing.T) {
		rr, err := NewRunReader(bytes.NewReader(seg.Bytes()), false)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSource(t, rr)
		compareRecords(t, want, got)
	})
	t.Run("compressed", func(t *testing.T) {
		comp := CompressSegmentWith(seg, Deflate)
		rr, err := NewRunReader(bytes.NewReader(comp.Bytes()), true)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSource(t, rr)
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		compareRecords(t, want, got)
	})
}

func compareRecords(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Val, got[i].Val) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestRunReaderRejectsBadHeader: a compressed run's header goes through the
// parser ReadCompressedSegment uses, and its declared raw length binds the
// run. A raw length that cannot hold a trailer, a negative record count, a
// raw length the stream does not end at, and — where the reader knows its
// size — one past the ratio bound are corrupt segments, at open or at EOF.
func TestRunReaderRejectsBadHeader(t *testing.T) {
	seg := runTestSegment(t, 100, 'a')
	body := CompressSegmentWith(seg, Deflate).Bytes()[len(compressedHeader("deflate", int64(seg.Len()), 100)):]
	// read opens and drains a run; unsized hides the reader's Size.
	read := func(data []byte, unsized bool) error {
		var r io.Reader = bytes.NewReader(data)
		if unsized {
			r = io.MultiReader(r)
		}
		rr, err := NewRunReader(r, true)
		if err != nil {
			return err
		}
		defer rr.Close()
		for {
			_, _, ok, err := rr.Next()
			if err != nil || !ok {
				return err
			}
		}
	}
	if err := read(append(compressedHeader("deflate", int64(seg.Len()), 100), body...), false); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, tc := range []struct {
		name            string
		rawLen, records int64
		unsized         bool
	}{
		{"negative raw length", -5, 100, false},
		{"raw length shorter than a trailer", 3, 100, false},
		{"negative record count", int64(seg.Len()), -1, false},
		{"raw length one past the stream", int64(seg.Len()) + 1, 100, false},
		{"raw length one short of the stream", int64(seg.Len()) - 1, 100, false},
		{"raw length past the ratio bound", 1 << 30, 100, false},
		{"raw length past the stream, size unknown", 1 << 30, 100, true},
	} {
		err := read(append(compressedHeader("deflate", tc.rawLen, tc.records), body...), tc.unsized)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s: err %v, want ErrCorruptSegment", tc.name, err)
		}
	}
}

// TestRunReaderDetectsCorruption flips one body byte: the streaming CRC must
// reject the run at EOF.
func TestRunReaderDetectsCorruption(t *testing.T) {
	seg := runTestSegment(t, 100, 'a')
	data := append([]byte(nil), seg.Bytes()...)
	data[len(data)/2] ^= 0x40
	rr, err := NewRunReader(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, ok, err := rr.Next()
		if err != nil {
			return // corruption surfaced, as required
		}
		if !ok {
			t.Fatal("corrupted run read cleanly to EOF")
		}
	}
}

// TestStreamWriterMatchesWriter checks the streaming writer emits exactly
// the bytes the in-memory Writer would.
func TestStreamWriterMatchesWriter(t *testing.T) {
	seg := runTestSegment(t, 300, 'b')
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	r := seg.NewReader()
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := sw.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	recs, n, err := sw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if recs != int64(seg.Records()) {
		t.Fatalf("records %d != %d", recs, seg.Records())
	}
	if n != int64(len(seg.Bytes())) || !bytes.Equal(buf.Bytes(), seg.Bytes()) {
		t.Fatalf("stream bytes differ from Writer output (%d vs %d bytes)", n, len(seg.Bytes()))
	}
}

// TestSourceMergerMatchesMergeStream merges the same segments through the
// pull-based source merger and the segment merge; output and tie-break
// order must be identical.
func TestSourceMergerMatchesMergeStream(t *testing.T) {
	cmp, err := writable.Comparator("Text")
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping keys with per-segment tags so tie-break order is visible.
	mk := func(tag byte, start, step, n int) *Segment {
		w := NewWriter(n * 16)
		for i := 0; i < n; i++ {
			w.Append([]byte(fmt.Sprintf("k%06d", start+i*step)), []byte{tag})
		}
		return w.Close()
	}
	segs := []*Segment{mk('a', 0, 2, 200), mk('b', 0, 3, 150), mk('c', 1, 2, 180)}

	var want []Record
	if _, err := MergeStream(cmp, segs, func(k, v []byte) error {
		want = append(want, Record{Key: append([]byte(nil), k...), Val: append([]byte(nil), v...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Mix source kinds: one in-memory reader, two streaming run readers.
	rr1, err := NewRunReader(bytes.NewReader(segs[1].Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	comp := CompressSegmentWith(segs[2], Deflate)
	rr2, err := NewRunReader(bytes.NewReader(comp.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSourceMerger(writable.ByComparator(cmp), []RecordSource{segs[0].NewReader(), rr1, rr2})
	if err != nil {
		t.Fatal(err)
	}
	got := drainSource(t, sourceFunc(m.Next))
	compareRecords(t, want, got)
}

type sourceFunc func() (key, val []byte, ok bool, err error)

func (f sourceFunc) Next() (key, val []byte, ok bool, err error) { return f() }

// refMergeHeap is SourceMerger as it was before the run check: every
// advance of the winner sifts the heap. It copies each record out.
func refMergeHeap(t *testing.T, cmp writable.RawComparator, srcs []RecordSource) []Record {
	t.Helper()
	type cursor struct {
		src      RecordSource
		key, val []byte
		index    int
	}
	less := func(a, b *cursor) bool {
		if c := cmp(a.key, b.key); c != 0 {
			return c < 0
		}
		return a.index < b.index
	}
	var h []*cursor
	siftDown := func(i int) {
		root := h[i]
		for {
			child := 2*i + 1
			if child >= len(h) {
				break
			}
			if r := child + 1; r < len(h) && less(h[r], h[child]) {
				child = r
			}
			if !less(h[child], root) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = root
	}
	advance := func(c *cursor) bool {
		k, v, ok, err := c.src.Next()
		if err != nil {
			t.Fatalf("reference merge: %v", err)
		}
		c.key, c.val = k, v
		return ok
	}
	for i, s := range srcs {
		if c := (&cursor{src: s, index: i}); advance(c) {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	var out []Record
	for len(h) > 0 {
		c := h[0]
		out = append(out, Record{Key: bytes.Clone(c.key), Val: bytes.Clone(c.val)})
		if !advance(c) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(0)
		}
	}
	return out
}

// keyRun is count records of one key in a merge-oracle source.
type keyRun struct {
	key   string
	count int
}

// runSources builds one segment per source from its key runs, each key
// serialized by encode — values tag the source index and the record's
// position in it, so a record from the wrong source or out of turn shows —
// and opens each as kinds[i % 4]: an in-memory Reader, a plain RunReader, a
// deflate RunReader or the Reader of a fetched segment, which carries run
// marks. Call it once per merge: sources are single-use.
func runSources(t *testing.T, spec [][]keyRun, kinds int, encode func(string) []byte) []RecordSource {
	t.Helper()
	srcs := make([]RecordSource, len(spec))
	for i, runs := range spec {
		w := NewWriter(64)
		n := 0
		for _, r := range runs {
			for j := 0; j < r.count; j++ {
				w.Append(encode(r.key), []byte{byte(i), byte(n >> 8), byte(n)})
				n++
			}
		}
		seg := w.Close()
		var err error
		switch (i + kinds) % 4 {
		case 0:
			srcs[i] = seg.NewReader()
		case 1:
			srcs[i], err = NewRunReader(bytes.NewReader(seg.Bytes()), false)
		case 2:
			srcs[i], err = NewRunReader(bytes.NewReader(CompressSegmentWith(seg, Deflate).Bytes()), true)
		default:
			if seg, err = ReadSegment(bytes.NewReader(seg.Bytes()), seg.Len()); err == nil {
				srcs[i] = seg.NewReader()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return srcs
}

func textKey(s string) []byte { return writable.Marshal(&writable.Text{Data: []byte(s)}) }

func bytesKey(s string) []byte { return writable.Marshal(&writable.BytesWritable{Data: []byte(s)}) }

// TestSourceMergerRunsMatchReferenceHeap holds the run-aware, prefix-keyed
// merger to the sift-every-time, comparator-only heap it replaced, over the
// shapes the run check decides: long runs of one key, one key tied across
// sources, runs that end at EOF, a lower-index source arriving at the key a
// higher-index one is running on, and random run layouts — in memory, as
// plain runs, as deflate runs and fetched with run marks, mixed. Every case runs by comparator alone
// (no extractor) and keyed by the Text and the BytesWritable prefixes; the
// "tie8" keys share their first 8 bytes and differ after, so only the
// comparator can order them. The values name the source and position, so
// the comparison is of (key, val, source).
func TestSourceMergerRunsMatchReferenceHeap(t *testing.T) {
	cases := map[string][][]keyRun{
		"long-runs":            {{{"a", 300}, {"b", 200}, {"d", 300}}, {{"a", 100}, {"c", 400}}, {{"b", 250}, {"d", 10}}},
		"one-key-everywhere":   {{{"k", 50}}, {{"k", 70}}, {{"k", 1}}, {{"k", 90}}},
		"runs-end-at-eof":      {{{"k1", 5}}, {{"k1", 3}, {"k2", 2}}, {{"k2", 4}}},
		"lower-index-catch-up": {{{"k2", 3}}, {{"k1", 2}, {"k2", 3}}, {{"k0", 1}, {"k2", 2}, {"k3", 1}}},
		"empty-sources":        {{}, {{"x", 3}}, {}, {{"x", 2}, {"y", 1}}},
		"tie8-across-sources":  {{{"tie8-key-a", 3}, {"tie8-key-c", 2}}, {{"tie8-key-b", 4}}, {{"tie8-key", 1}, {"tie8-key-a", 2}, {"tie8-key-b", 1}}},
	}
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 60; c++ {
		family := "key-%d"
		if c%2 == 1 {
			family = "tie8-key-%d" // 10 bytes, the first 8 shared
		}
		spec := make([][]keyRun, 1+rng.Intn(7))
		for i := range spec {
			for k := 0; k < 6; k++ {
				if rng.Intn(2) == 0 {
					spec[i] = append(spec[i], keyRun{fmt.Sprintf(family, k), 1 + rng.Intn(40)})
				}
			}
		}
		cases[fmt.Sprintf("random-%02d", c)] = spec
	}
	for _, order := range []struct {
		name    string
		keyType string
		encode  func(string) []byte
		prefix  bool
	}{
		{"Text/comparator-only", "Text", textKey, false},
		{"Text/prefix", "Text", textKey, true},
		{"BytesWritable/prefix", "BytesWritable", bytesKey, true},
	} {
		ko, _ := writable.Order(order.keyType)
		cmp := ko.Cmp
		if !order.prefix {
			ko = writable.ByComparator(cmp)
		}
		for name, spec := range cases {
			for kinds := 0; kinds < 4; kinds++ {
				want := refMergeHeap(t, cmp, runSources(t, spec, kinds, order.encode))
				m, err := NewSourceMerger(ko, runSources(t, spec, kinds, order.encode))
				if err != nil {
					t.Fatal(err)
				}
				got := drainSource(t, sourceFunc(m.Next))
				if len(got) != len(want) {
					t.Fatalf("%s/%s/kinds=%d: merged %d records, reference %d", order.name, name, kinds, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Val, want[i].Val) {
						t.Fatalf("%s/%s/kinds=%d: record %d is %q from source %d, reference %q from source %d",
							order.name, name, kinds, i, got[i].Key, got[i].Val[0], want[i].Key, want[i].Val[0])
					}
				}
			}
		}
	}
}

// TestRunReaderKeyOutlivesNext: the key view a RunReader returned is intact
// after one more Next, plain and compressed — the RecordSource rule the
// merge's run check stands on.
func TestRunReaderKeyOutlivesNext(t *testing.T) {
	seg := runTestSegment(t, 300, 'a')
	for _, compressed := range []bool{false, true} {
		data := seg.Bytes()
		if compressed {
			data = CompressSegmentWith(seg, Deflate).Bytes()
		}
		rr, err := NewRunReader(bytes.NewReader(data), compressed)
		if err != nil {
			t.Fatal(err)
		}
		var prev, prevCopy []byte
		for i := 0; ; i++ {
			k, _, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && !bytes.Equal(prev, prevCopy) {
				t.Fatalf("compressed=%v: record %d's key read %q after the next Next, was %q", compressed, i-1, prev, prevCopy)
			}
			if !ok {
				break
			}
			prev, prevCopy = k, bytes.Clone(k)
		}
	}
}

// TestRunReaderNextAllocatesNothing: a warm RunReader reads a record
// without allocating, plain and deflate (the framing vints once allocated
// a one-byte slice per byte they folded into the checksum).
func TestRunReaderNextAllocatesNothing(t *testing.T) {
	seg := runTestSegment(t, 5000, 'a')
	for _, compressed := range []bool{false, true} {
		data := seg.Bytes()
		if compressed {
			data = CompressSegmentWith(seg, Deflate).Bytes()
		}
		rr, err := NewRunReader(bytes.NewReader(data), compressed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			rr.Next()
		}
		if avg := testing.AllocsPerRun(4000, func() {
			if _, _, ok, err := rr.Next(); !ok || err != nil {
				t.Fatalf("Next: ok=%v err=%v", ok, err)
			}
		}); avg != 0 {
			t.Errorf("compressed=%v: RunReader.Next allocates %.2f times per record, want 0", compressed, avg)
		}
		rr.Close()
	}
}
