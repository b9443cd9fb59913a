package kvbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"mrmicro/internal/writable"
)

// scanMarks runs the reference scan over data as a fetch once did, a
// shuffleCRCChunk at a time, and returns the marks it proves.
func scanMarks(data []byte) []uint64 {
	var s runScan
	for end := 0; end < len(data); {
		end = min(end+shuffleCRCChunk, len(data))
		s.walk(data[:end])
	}
	return s.done()
}

// marked reports bit i of marks.
func marked(marks []uint64, i int) bool { return i>>6 < len(marks) && marks[i>>6]&(1<<(i&63)) != 0 }

// refMarks is the scan's own reference: a plain Reader over the bytes, with
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

// checkMarks holds seg's run marks to the reference scan of its bytes: no
// mark the scan does not prove (sound), none past the records, and, where
// complete is set, every mark the scan proves.
func checkMarks(t *testing.T, what string, seg *Segment, complete bool) {
	t.Helper()
	data := seg.Bytes()
	want, records := scanMarks(data), len(refMarks(data))
	for i := 0; i < max(records, 64*len(seg.marks)); i++ {
		got, ref := marked(seg.marks, i), marked(want, i)
		switch {
		case got && i >= records:
			t.Fatalf("%s: record %d marked, but the segment holds %d records", what, i, records)
		case got && !ref:
			t.Fatalf("%s: record %d marked, but its key differs from the one before it", what, i)
		case complete && ref && !got:
			t.Fatalf("%s: record %d repeats the key before it and is not marked", what, i)
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

// TestReferenceScanMatchesReader holds the reference scan to the plain
// Reader over one-byte and multi-byte vint headers, records straddling the
// 128 KiB chunk boundary, an empty segment and bytes past the EOF marker.
func TestReferenceScanMatchesReader(t *testing.T) {
	long := string(bytes.Repeat([]byte("k"), 300))
	pastEOF := func() []byte {
		// Records, the EOF marker, then a record repeating the last key and
		// a checksum over all of it: the scan must stop at the marker as the
		// Reader does.
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
		scan, ref := scanMarks(tc.data), refMarks(tc.data)
		for i := 0; i < max(len(ref), 64*len(scan)); i++ {
			if want := i < len(ref) && ref[i]; marked(scan, i) != want {
				t.Fatalf("%s: record %d scanned %v, reader %v", tc.name, i, marked(scan, i), want)
			}
		}
	}
	if n := len(refMarks(cases[4].data)); n != 400 {
		t.Fatalf("chunk-straddle reference reads %d records, want 400", n)
	}
}

// markCase is one SortBuffer input: records over partitions, collected
// under a key type's order, or under its comparator alone (noPrefix).
type markCase struct {
	name       string
	typ        string
	noPrefix   bool
	partitions int
	recs       []spillRec
}

// pf is the prefix func tc's buffer is given: nil for none.
func (tc markCase) pf() writable.PrefixFunc {
	if tc.noPrefix {
		return nil
	}
	return tc.order().Prefix
}

// order is the KeyOrder tc's buffer sorts by.
func (tc markCase) order() writable.KeyOrder {
	o, _ := writable.Order(tc.typ)
	if tc.noPrefix {
		return writable.ByComparator(o.Cmp)
	}
	return o
}

// textRecs deals Text keys to partitions: record i gets keys[i] and
// partition parts[i%len(parts)], with a value of vlen bytes naming i.
func textRecs(keys []string, vlen int, parts ...int) []spillRec {
	recs := make([]spillRec, len(keys))
	for i, k := range keys {
		val := binary.BigEndian.AppendUint32(make([]byte, 0, vlen+4), uint32(i))
		recs[i] = spillRec{part: parts[i%len(parts)], key: textKey(k), val: append(val, make([]byte, vlen)...)}
	}
	return recs
}

// markCases are inputs aimed at each way a producer proves marks: runs the
// spill's copy pass proves, runs of distinct keys under one prefix that it
// re-sorts (equal lengths, differing past the prefix; in an order the sort
// changes), such a run cut after the copy folded its checksum, a comparator
// with no prefix, keys the comparator holds equal but whose bytes differ,
// and partitions kept in arrival order that are handed over.
func markCases() []markCase {
	var interleaved []string
	for i := 0; i < 600; i++ {
		interleaved = append(interleaved, []string{"abcdefghij", "bcdefghijk", "cdefghijkl", "defghijklm"}[i*7%4])
	}
	// One prefix, three keys that differ in their last byte, arriving so
	// that the sort moves them: c c c a b b. The copy pass marks records 1
	// and 2 before it meets a; sorted, the repeats are records 2, 4 and 5.
	resorted := []string{"prefix-key-c", "prefix-key-c", "prefix-key-c", "prefix-key-a", "prefix-key-b", "prefix-key-b"}
	// 3000 records of one key, past two checksum folds, then a key of the
	// same prefix: the run is copied and folded before it is cut.
	longRun := append(repeatKeys("prefix-key-", 1, 3000), "prefix-key-zzz")
	var headers []spillRec
	for i := 0; i < 40; i++ {
		k := []byte("\x05equal")
		if i%3 == 1 {
			k = []byte("\x8f\x05equal") // the length 5 in two bytes: equal, but not byte-identical
		}
		if i >= 20 {
			k = []byte{1, byte(45 - i)} // descending: the partition is sorted, not handed over
		}
		headers = append(headers, spillRec{part: i / 20, key: k, val: []byte{byte(i)}})
	}
	return []markCase{
		{"rand-10b-runs", "Text", false, 4, textRecs(interleaved, 10, 0, 1, 2, 3, 1, 2, 0)},
		{"resorted-run", "Text", false, 1, textRecs(resorted, 3, 0)},
		{"resorted-after-folds", "Text", false, 1, textRecs(longRun, 100, 0)},
		{"no-prefix", "Text", true, 2, textRecs(append(resorted, interleaved[:50]...), 3, 0, 1)},
		{"equal-not-identical", "Text", false, 2, headers},
		{"handed-over", "Text", false, 2, textRecs(append(repeatKeys("prefix-key-", 30, 4), repeatKeys("prefix-kez-", 2, 400)...), 40, 0, 1)},
		{"handed-over-long", "Text", false, 1, textRecs(repeatKeys(string(bytes.Repeat([]byte("k"), 300)), 20, 30), 200, 0)},
	}
}

// TestRunMarksMatchReference holds every producer's run marks to the
// reference scan over its bytes. The spill's copy pass and a handed-over
// chain must mark every repeat; a merge, compression and the shuffle's side
// frame must mark no record that is not one.
func TestRunMarksMatchReference(t *testing.T) {
	for _, tc := range markCases() {
		order := tc.order()
		segs := spillRecs(t, order.Cmp, tc.pf(), tc.partitions, tc.recs)
		want := naiveSpill(order.Cmp, tc.partitions, tc.recs)
		total := 0
		for p, seg := range segs {
			if !bytes.Equal(seg.Bytes(), want[p]) {
				t.Fatalf("%s partition %d: spill differs from the naive stable sort", tc.name, p)
			}
			checkMarks(t, fmt.Sprintf("%s partition %d spill", tc.name, p), seg, true)
			for w := range seg.marks {
				total += bitsSet(seg.marks[w])
			}

			// Over the wire, raw and deflated: the frame brings the marks.
			for _, compressed := range []bool{false, true} {
				payload, read := seg.Bytes(), ReadSegment
				if compressed {
					payload, read = CompressSegmentWith(seg, Deflate).Bytes(), ReadCompressedSegment
				}
				wire := seg.AppendMarksFrame(bytes.Clone(payload))
				r := bytes.NewReader(wire)
				fetched, err := read(r, len(payload))
				if err != nil {
					t.Fatal(err)
				}
				if err := ReadMarksFrame(r, fetched); err != nil || r.Len() != 0 {
					t.Fatalf("%s: marks frame: err %v, %d bytes left", tc.name, err, r.Len())
				}
				checkMarks(t, fmt.Sprintf("%s partition %d fetched (deflate %v)", tc.name, p, compressed), fetched, true)
			}
		}
		if tc.name != "equal-not-identical" && total == 0 {
			t.Fatalf("%s: no record marked; the case does not reach a mark", tc.name)
		}
		// A merge of the partitions, one source each: the marks it carries
		// are the repeats its merger proved.
		merged, _, err := Merge(order, segs)
		if err != nil {
			t.Fatal(err)
		}
		checkMarks(t, tc.name+" merge", merged, false)
	}
}

func bitsSet(w uint64) (n int) {
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
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

// TestMarksFrameVerdicts walks a frame through each way it can arrive: whole
// (the marks), after a rejected payload (consumed and dropped), with a
// flipped bit in a word or in the count, with a count no segment of its
// size can need, and cut short (typed errors, no marks). Where the frame is
// accepted, the stream behind it reads in sync.
func TestMarksFrameVerdicts(t *testing.T) {
	cmp, pf := writable.CompareText, mustPrefix("Text")
	segs := spillRecs(t, cmp, pf, 1, textRecs(repeatKeys("prefix-key-", 5, 40), 4, 0))
	seg := segs[0]
	frame := seg.AppendMarksFrame(nil)
	if len(frame) != 4+8*len(seg.marks)+4 || len(seg.marks) != 4 {
		t.Fatalf("frame of %d bytes for %d words of marks, want 4 words", len(frame), len(seg.marks))
	}
	const tail = "next"
	read := func(frame []byte, into *Segment) (*Segment, error, string) {
		var got *Segment
		if into != nil {
			got = &Segment{data: into.data, records: into.records}
		}
		r := bytes.NewReader(append(bytes.Clone(frame), tail...))
		err := ReadMarksFrame(r, got)
		rest, _ := io.ReadAll(r)
		return got, err, string(rest)
	}
	if got, err, rest := read(frame, seg); err != nil || rest != tail || fmt.Sprint(got.marks) != fmt.Sprint(seg.marks) {
		t.Errorf("whole frame: err %v, rest %q, marks %v, want %v", err, rest, got.marks, seg.marks)
	}
	if _, err, rest := read(frame, nil); err != nil || rest != tail {
		t.Errorf("frame behind a rejected payload: err %v, rest %q", err, rest)
	}
	// A flipped bit in a word, or in the count (4 words read as 2: the
	// checksum is taken from a word, the rest is left on the stream).
	for _, bit := range []int{9, 3} {
		flipped := bytes.Clone(frame)
		flipped[bit] ^= 6
		for _, into := range []*Segment{seg, nil} {
			if got, err, _ := read(flipped, into); !errors.Is(err, ErrMarksFrame) || got != nil && got.marks != nil {
				t.Errorf("byte %d flipped, segment %t: err %v, want ErrMarksFrame and no marks", bit, into != nil, err)
			}
		}
	}
	huge := binary.BigEndian.AppendUint32(nil, uint32(markWords(seg.Len())+1))
	if _, err, _ := read(huge, seg); !errors.Is(err, ErrMarksFrame) {
		t.Errorf("count past the segment: err %v, want ErrMarksFrame", err)
	}
	if _, err, _ := read(binary.BigEndian.AppendUint32(nil, math.MaxUint32), nil); !errors.Is(err, ErrMarksFrame) {
		t.Errorf("count past any segment: err %v, want ErrMarksFrame", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		r := bytes.NewReader(frame[:cut])
		if err := ReadMarksFrame(r, &Segment{data: seg.data}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frame cut at %d of %d bytes: err %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
	empty := new(Segment).AppendMarksFrame(nil)
	if got, err, rest := read(empty, seg); err != nil || rest != tail || got.marks != nil {
		t.Errorf("empty frame: err %v, rest %q, marks %v", err, rest, got.marks)
	}
}

// TestMarkedMergeMatchesUnmarked merges the same segments as a spill hands
// them over (marked) and as written (unmarked): the records, the comparison
// count and the merger's Repeat must not depend on where the runs were
// proven. Repeat is held to its definition: same source as the record
// before, same key.
func TestMarkedMergeMatchesUnmarked(t *testing.T) {
	ko, _ := writable.Order("BytesWritable")
	cmp, _ := writable.Comparator("BytesWritable")
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
	merge := func(spilled bool) ([]step, int64) {
		srcs := make([]RecordSource, len(specs))
		for i, keys := range specs {
			var seg *Segment
			if spilled {
				buf := NewSortBuffer(1<<20, 1, cmp)
				buf.SetPrefixFunc(ko.Prefix)
				for n, k := range keys {
					if ok, err := buf.Add(0, bytesKey(k), []byte{byte(i), byte(n >> 8), byte(n)}); !ok || err != nil {
						t.Fatal(ok, err)
					}
				}
				segs, _ := buf.Spill()
				buf.Release()
				if seg = segs[0]; len(keys) > 1 && seg.marks == nil {
					t.Fatalf("source %d: the spill proved no marks", i)
				}
			} else {
				w := NewWriter(64)
				for n, k := range keys {
					w.Append(bytesKey(k), []byte{byte(i), byte(n >> 8), byte(n)})
				}
				seg = w.Close()
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

// runScan is the reference scan every producer's run marks are held to. It
// is the fetch-side proof the reduce side once ran over every fetched byte:
// walk is handed the bytes received so far, parses every record they now
// hold whole, and marks each one whose key is byte-identical to the previous
// record's. It parses exactly as Reader does, so it marks the records a
// Reader of the same bytes returns; at the EOF marker, a malformed header or
// a record cut off by the end of the stream it stops, leaving what follows
// unmarked for the Reader to reject.
type runScan struct {
	off      int    // where the next record's header starts
	prev     []byte // the previous record's key
	records  int
	word     uint64 // marks of the records in the current 64, not yet in marks
	marks    []uint64
	finished bool
}

func (s *runScan) walk(data []byte) {
	off, prev, rec, word := s.off, s.prev, s.records, s.word
	for !s.finished {
		d := data[off:]
		var kl, vl, h int
		if len(d) >= 2 && d[0] < 0x80 && d[1] < 0x80 {
			// Both lengths one-byte vints in [0, 127]: every record of a
			// small-record job, decoded with no call.
			kl, vl, h = int(d[0]), int(d[1]), 2
		} else if kl, vl, h = recordHeader(d); h <= 0 {
			s.finished = h < 0
			break
		}
		if h+kl+vl > len(d) {
			break // the rest of the record is in a chunk still to come
		}
		key := d[h : h+kl]
		if rec > 0 && bytes.Equal(key, prev) {
			word |= 1 << (rec & 63)
		}
		prev = key
		off += h + kl + vl
		if rec++; rec&63 == 0 && word != 0 {
			s.store(word, rec-1, off, cap(data))
			word = 0
		}
	}
	s.off, s.prev, s.records, s.word = off, prev, rec, word
}

// store puts the marks word of the 64 records up to rec into marks. The
// first store sizes the bitset for the whole segment of size bytes, at the
// record size seen up to off, so uniform records allocate their marks once.
func (s *runScan) store(word uint64, rec, off, size int) {
	if w := rec >> 6; w >= len(s.marks) {
		n := w + 1
		if s.marks == nil {
			n = max(n, (size/off*(rec+1))>>6+1)
		}
		s.marks = append(s.marks, make([]uint64, max(n, 2*len(s.marks))-len(s.marks))...)
	}
	s.marks[rec>>6] = word
}

// done returns the segment's marks once every byte has been walked.
func (s *runScan) done() []uint64 {
	if s.word != 0 {
		s.store(s.word, s.records-1, s.off, s.off)
	}
	return s.marks
}

// recordHeader decodes a record header the one-byte case of walk does not
// take: h > 0 is its length, h == 0 means d ends inside it, and h < 0 that
// no record starts here — the EOF marker, or lengths Reader rejects.
func recordHeader(d []byte) (kl, vl, h int) {
	k, n := headerVInt(d)
	if n <= 0 {
		return 0, 0, n
	}
	v, m := headerVInt(d[n:])
	if m <= 0 {
		return 0, 0, m
	}
	if k < 0 || v < 0 || k > math.MaxInt32 || v > math.MaxInt32 {
		return 0, 0, -1
	}
	return int(k), int(v), n + m
}

// headerVInt decodes the vint at the head of d as writable's decoder does,
// returning its value and encoded length, or n == 0 when d ends inside it.
// DataInput.ReadVLong would build an error for every header a chunk
// boundary cuts, and reading 3-byte headers through it made
// BenchmarkReadSegmentAvg1K ≈6 % slower.
func headerVInt(d []byte) (v int64, n int) {
	if len(d) == 0 {
		return 0, 0
	}
	if n = writable.VIntSize(d[0]); n == 1 {
		return int64(int8(d[0])), 1
	}
	if len(d) < n {
		return 0, 0
	}
	for _, b := range d[1:n] {
		v = v<<8 | int64(b)
	}
	if writable.VIntNegative(d[0]) {
		v ^= -1
	}
	return v, n
}
