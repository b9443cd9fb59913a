package kvbuf

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mrmicro/internal/writable"
)

// refMarks is the run-mark reference: a plain Reader over the bytes, with
// no proof of any kind, and bytes.Equal over consecutive keys. Record i is
// marked when its key equals record i-1's. It stops where the Reader does,
// at the EOF marker or at the first error.
func refMarks(data []byte) []bool {
	r := adopt(data).NewReader()
	var marks []bool
	var prev []byte
	for {
		k, _, ok, err := r.Next()
		if err != nil || !ok {
			return marks
		}
		marks = append(marks, len(marks) > 0 && bytes.Equal(k, prev))
		prev = k
	}
}

// checkMarks holds seg's run marks to refMarks of the same bytes: equal for
// every record the reference reads, and none set past them.
func checkMarks(t *testing.T, what string, seg *Segment, data []byte) {
	t.Helper()
	want := refMarks(data)
	for i, w := range want {
		if got := seg.marks != nil && i>>6 < len(seg.marks) && seg.marks[i>>6]&(1<<(i&63)) != 0; got != w {
			t.Fatalf("%s: record %d marked %v, reference %v", what, i, got, w)
		}
	}
	for w, word := range seg.marks {
		for b := 0; b < 64; b++ {
			if i := w*64 + b; word&(1<<b) != 0 && i >= len(want) {
				t.Fatalf("%s: record %d marked, but the reference reads only %d records", what, i, len(want))
			}
		}
	}
}

// markedRecords builds an IFile stream of the given keys, each with a value
// of vlen bytes.
func markedRecords(vlen int, keys ...string) []byte {
	w := NewWriter(64)
	for i, k := range keys {
		w.Append([]byte(k), bytes.Repeat([]byte{byte(i)}, vlen))
	}
	return w.Close().Bytes()
}

// repeatKeys returns n keys, each repeated run times in a row; consecutive
// distinct keys have the same length and differ in their last byte only,
// so a mark set on equal lengths without comparing the bytes shows.
func repeatKeys(prefix string, n, run int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		for j := 0; j < run; j++ {
			keys = append(keys, fmt.Sprintf("%s%03d", prefix, i))
		}
	}
	return keys
}

// TestRunMarksMatchReference holds the marks ReadSegment proves, and those
// ReadCompressedSegment's inflate brings through it, to the reference over
// one-byte and multi-byte vint headers, records straddling the 128 KiB
// chunk boundary, an empty segment and bytes past the EOF marker.
func TestRunMarksMatchReference(t *testing.T) {
	long := string(bytes.Repeat([]byte("k"), 300))
	pastEOF := func() []byte {
		// Records, the EOF marker, then a record repeating the last key and
		// a checksum over all of it: ReadSegment accepts the bytes, and the
		// scan must stop at the marker as the Reader does.
		d := markedRecords(3, "a", "b", "b")
		d = append(d[:len(d)-4], markedRecords(3, "b")[:7]...)
		crc := UpdateCRC(0, d)
		return append(d, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	}()
	cases := []struct {
		name    string
		data    []byte
		chunked bool // some record straddles a shuffleCRCChunk boundary
	}{
		{"one-byte-vints", markedRecords(5, "a", "a", "b", "b", "b", "c", "a", "a", "", ""), false},
		{"one-byte-same-length", markedRecords(9, repeatKeys("key-", 40, 3)...), false},
		{"multi-byte-vints", markedRecords(200, long+"1", long+"1", long+"2", long+"2", "short", "short"), false},
		{"multi-byte-value-only", markedRecords(1000, repeatKeys("k", 20, 4)...), false},
		{"chunk-straddle", markedRecords(1000, repeatKeys(long, 80, 5)...), true},
		{"empty-segment", NewWriter(8).Close().Bytes(), false},
		{"past-eof-marker", pastEOF, false},
	}
	for _, tc := range cases {
		if tc.chunked && len(tc.data) < 2*shuffleCRCChunk {
			t.Fatalf("%s: %d bytes do not cross a chunk boundary", tc.name, len(tc.data))
		}
		seg, err := ReadSegment(bytes.NewReader(tc.data), len(tc.data))
		if err != nil {
			t.Fatalf("%s: ReadSegment: %v", tc.name, err)
		}
		checkMarks(t, tc.name, seg, tc.data)
		if tc.name == "past-eof-marker" {
			continue // a compressed segment's stream is a writer's, not hand-built
		}
		z := CompressSegmentWith(&Segment{data: tc.data, records: len(refMarks(tc.data))}, Deflate)
		inflated, err := ReadCompressedSegment(bytes.NewReader(z.Bytes()), z.Len())
		if err != nil {
			t.Fatalf("%s: ReadCompressedSegment: %v", tc.name, err)
		}
		checkMarks(t, tc.name+"/deflate", inflated, tc.data)
	}
	if n := len(refMarks(cases[4].data)); n != 400 {
		t.Fatalf("chunk-straddle reference reads %d records, want 400", n)
	}
}

// TestRunMarksCorruptPayload: a damaged payload gives an error and no
// segment, so no marks, on both fetch paths.
func TestRunMarksCorruptPayload(t *testing.T) {
	clean := markedRecords(50, repeatKeys("key-", 10, 3)...)
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x20
	if seg, err := ReadSegment(bytes.NewReader(flipped), len(flipped)); seg != nil || !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("ReadSegment on a flipped bit: seg %v err %v", seg, err)
	}
	z := CompressSegmentWith(&Segment{data: flipped, records: 30}, Deflate).Bytes()
	if seg, err := ReadCompressedSegment(bytes.NewReader(z), len(z)); seg != nil || !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("ReadCompressedSegment over a flipped bit: seg %v err %v", seg, err)
	}
}

// TestMarkedMergeMatchesUnmarked merges the same segments fetched (marked)
// and as written (unmarked): the records, the comparison count and the
// merger's Repeat must not depend on where the runs were proven. Repeat is
// held to its definition: same source as the record before, same key.
func TestMarkedMergeMatchesUnmarked(t *testing.T) {
	ko, _ := writable.Order("BytesWritable")
	specs := [][]string{
		repeatKeys("k", 30, 7),
		repeatKeys("k", 45, 2),
		repeatKeys("j", 10, 20),
		nil,
		repeatKeys("k", 1, 300),
	}
	type step struct {
		key, val string
		repeat   bool
	}
	merge := func(fetch bool) ([]step, int64) {
		srcs := make([]RecordSource, len(specs))
		for i, keys := range specs {
			w := NewWriter(64)
			for n, k := range keys {
				w.Append(bytesKey(k), []byte{byte(i), byte(n >> 8), byte(n)})
			}
			seg := w.Close()
			if fetch {
				var err error
				if seg, err = ReadSegment(bytes.NewReader(seg.Bytes()), seg.Len()); err != nil {
					t.Fatal(err)
				}
			}
			srcs[i] = seg.NewReader()
		}
		m, err := NewSourceMerger(ko, srcs)
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		for {
			k, v, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return steps, m.comps
			}
			steps = append(steps, step{string(k), string(v), m.Repeat()})
		}
	}
	plain, plainComps := merge(false)
	marked, markedComps := merge(true)
	if len(plain) != len(marked) || plainComps != markedComps {
		t.Fatalf("unmarked: %d records, %d comparisons; marked: %d records, %d comparisons", len(plain), plainComps, len(marked), markedComps)
	}
	repeats := 0
	for i := range plain {
		want := i > 0 && plain[i].key == plain[i-1].key && plain[i].val[0] == plain[i-1].val[0]
		if plain[i] != marked[i] || plain[i].repeat != want {
			t.Fatalf("record %d: unmarked %+v, marked %+v, want repeat %v", i, plain[i], marked[i], want)
		}
		if want {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no repeats merged: the case does not reach the run path")
	}
}
