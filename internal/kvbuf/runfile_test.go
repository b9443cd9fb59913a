package kvbuf

import (
	"bytes"
	"fmt"
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
	m, err := NewSourceMerger(cmp, []RecordSource{segs[0].NewReader(), rr1, rr2})
	if err != nil {
		t.Fatal(err)
	}
	got := drainSource(t, sourceFunc(m.Next))
	compareRecords(t, want, got)
}

type sourceFunc func() (key, val []byte, ok bool, err error)

func (f sourceFunc) Next() (key, val []byte, ok bool, err error) { return f() }
