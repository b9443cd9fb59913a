package kvbuf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"mrmicro/internal/fuzzcorpus"
	"mrmicro/internal/writable"
)

// fuzzSeedSegment builds a small valid IFile stream for the seed corpus.
func fuzzSeedSegment() []byte {
	w := NewWriter(64)
	w.Append([]byte("alpha"), []byte("1"))
	w.Append([]byte("beta"), bytes.Repeat([]byte("v"), 40))
	w.Append([]byte(""), []byte("")) // empty key and value are legal
	return w.Close().Bytes()
}

// fuzzLongSeedSegment has lengths of 128 and more, which take multi-byte
// vints: the Reader's general decoder, not its one-byte case.
func fuzzLongSeedSegment() []byte {
	w := NewWriter(1024)
	w.Append(bytes.Repeat([]byte("k"), 200), bytes.Repeat([]byte("v"), 300))
	w.Append([]byte("short"), bytes.Repeat([]byte("w"), 128))
	return w.Close().Bytes()
}

// validFuzzSeeds are the indices of fuzzSeeds that read cleanly.
var validFuzzSeeds = map[int]bool{0: true, 8: true, 9: true}

// fuzzSeeds is the named seed list behind both the in-process f.Add calls
// and the checked-in testdata/fuzz corpus.
func fuzzSeeds() [][]byte {
	valid := fuzzSeedSegment()
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	long := fuzzLongSeedSegment()
	return [][]byte{
		valid,
		valid[:len(valid)-3],             // truncated inside the CRC trailer
		valid[:len(valid)/2],             // truncated mid-record
		append([]byte{0x85, 0x01}, 'x'),  // negative vint key length
		append(bytes.Clone(valid), 0, 0), // trailing junk after the trailer
		{},                               // empty stream
		{0xff, 0xff, 0xff, 0xff},         // bare garbage
		flipped,                          // bit flip mid-stream
		long,                             // multi-byte key and value lengths
		NewWriter(8).Close().Bytes(),     // no records: EOF markers and trailer only
		long[:1],                         // truncated inside a multi-byte length
		{0xff, 0x00, 0, 0, 0, 0},         // EOF key marker with a value length
	}
}

// TestFuzzSeedCorpusSync pins the checked-in corpora to the seed lists: every
// seed must exist byte-exactly under testdata/fuzz, so plain `go test` fuzz
// smoke runs are deterministic even if the writer's output format moves.
// Regenerate with MRMICRO_WRITE_CORPUS=1 go test -run TestFuzzSeedCorpusSync.
func TestFuzzSeedCorpusSync(t *testing.T) {
	for target, seeds := range map[string][][]byte{
		"FuzzIFileReader":       fuzzSeeds(),
		"FuzzSpillOrder":        spillOrderSeeds(),
		"FuzzCompressedSegment": compressedSegmentSeeds(),
		"FuzzMarksFrame":        marksFrameSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if os.Getenv("MRMICRO_WRITE_CORPUS") != "" {
			if err := fuzzcorpus.Write(dir, seeds); err != nil {
				t.Fatal(err)
			}
			continue
		}
		corpus, err := fuzzcorpus.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m := fuzzcorpus.Missing(corpus, seeds); len(m) != 0 {
			t.Errorf("%d seeds missing from %s; regenerate with MRMICRO_WRITE_CORPUS=1", len(m), dir)
		}
	}
}

// FuzzIFileReader feeds arbitrary bytes through the IFile segment decoder:
// ReadSegment's trailer check and a full Next() iteration must reject
// truncated or corrupt input with an error, never a panic or runaway
// allocation. The committed seed corpus (valid, truncated, bit-flipped,
// trailing-junk, empty) also runs as a regression test under plain `go test`.
func FuzzIFileReader(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, verifyErr := ReadSegment(bytes.NewReader(data), len(data))
		if verifyErr != nil {
			seg = adopt(data)
		}

		r := seg.NewReader()
		var readErr error
		records := 0
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				readErr = err
				break
			}
			if !ok {
				break
			}
			records++
			if records > len(data) {
				t.Fatalf("decoded %d records from %d bytes: reader not consuming input", records, len(data))
			}
		}
		if r.RecordsRead() != records {
			t.Errorf("RecordsRead() = %d, iterated %d", r.RecordsRead(), records)
		}
		// A segment ReadSegment accepts comes back marked proven, and its
		// Reader may then skip the end-of-stream re-scan. That must never
		// change what is accepted: a Reader over the same bytes with no mark
		// — which always re-scans — sees the same records and the same verdict.
		plainRecords, plainErr := drain(adopt(data))
		if plainRecords != records || (plainErr == nil) != (readErr == nil) {
			t.Errorf("ReadSegment err %v: marked read %d records (err %v), unmarked read %d (err %v)",
				verifyErr, records, readErr, plainRecords, plainErr)
		}
		// Next's one-byte case agrees with the general decoder record for
		// record, and on where and whether the stream fails.
		fast, general := adopt(data).NewReader(), adopt(data).NewReader()
		for i := 0; ; i++ {
			fk, fv, fok, ferr := fast.Next()
			gk, gv, gok, gerr := general.next()
			if !bytes.Equal(fk, gk) || !bytes.Equal(fv, gv) || fok != gok || (ferr == nil) != (gerr == nil) {
				t.Fatalf("record %d: Next (%q, %q, %v, %v), general decoder (%q, %q, %v, %v)", i, fk, fv, fok, ferr, gk, gv, gok, gerr)
			}
			if !fok || ferr != nil {
				break
			}
		}
		// A stream that reads cleanly to its EOF marker has a valid CRC over
		// the prefix the reader consumed; ReadSegment's whole-buffer check
		// may still reject trailing junk, but the reverse implication must
		// hold: a trailer-clean segment that is exactly the written stream
		// never produces a read error. We can only assert that cheaply for the
		// canonical seed shape, so beyond the equivalence above the invariant
		// checked for arbitrary input is the absence of panics.
	})
}

// TestFuzzSeedsRejectedByReader: of the seed corpus only the writer's own
// output reads cleanly; the truncated, junk-extended, bit-flipped and
// malformed-marker seeds are all rejected by the Reader, mark or no mark.
func TestFuzzSeedsRejectedByReader(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		seg, verr := ReadSegment(bytes.NewReader(seed), len(seed))
		if verr != nil {
			seg = adopt(seed)
		}
		_, rerr := drain(seg)
		switch {
		case validFuzzSeeds[i] && (verr != nil || rerr != nil):
			t.Errorf("valid seed %d: ReadSegment %v, read %v", i, verr, rerr)
		case i == 4 && (verr == nil || rerr != nil):
			// Trailing junk: the records and their trailer are intact, the
			// whole-buffer check is not.
			t.Errorf("trailing-junk seed: ReadSegment %v, read %v", verr, rerr)
		case !validFuzzSeeds[i] && i != 4 && (verr == nil || rerr == nil):
			t.Errorf("seed %d (%q): ReadSegment %v, read %v; want both to reject it", i, seed, verr, rerr)
		}
	}
}

// TestVerifyMatchesReaderOnCleanStreams pins the relationship the fuzz
// target cannot assert for arbitrary bytes: for exact writer output, both
// validation paths — ReadSegment's trailer check and the Reader — agree.
func TestVerifyMatchesReaderOnCleanStreams(t *testing.T) {
	clean := fuzzSeedSegment()
	seg, err := ReadSegment(bytes.NewReader(clean), len(clean))
	if err != nil {
		t.Fatalf("ReadSegment on clean stream: %v", err)
	}
	r := seg.NewReader()
	for {
		_, _, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next on clean stream: %v", err)
		}
		if !ok {
			break
		}
	}
	if r.RecordsRead() != 3 {
		t.Errorf("records = %d, want 3", r.RecordsRead())
	}
}

// compressedHeader is the compressed segment wire header, spelled out so
// seeds can lie in it.
func compressedHeader(codec string, rawLen, records int64) []byte {
	out := writable.NewDataOutput(16)
	out.WriteVInt(int32(len(codec)))
	out.Write([]byte(codec))
	out.WriteVLong(rawLen)
	out.WriteVLong(records)
	return out.Bytes()
}

// validCompressedSeeds are the indices of compressedSegmentSeeds that the
// decoders accept.
var validCompressedSeeds = map[int]bool{0: true, 5: true, 6: true}

// compressedSegmentSeeds is the named seed list of FuzzCompressedSegment.
// The committed corpus was written by compress/flate's own writer, so
// TestFuzzSeedCorpusSync also holds Deflate's output to those bytes.
func compressedSegmentSeeds() [][]byte {
	raw := &Segment{data: fuzzLongSeedSegment(), records: 2}
	valid := CompressSegmentWith(raw, Deflate).Bytes()
	header := len(compressedHeader("deflate", int64(raw.Len()), 2))
	flipped := bytes.Clone(valid)
	flipped[header+(len(valid)-header)/2] ^= 0x10
	return [][]byte{
		valid,
		valid[:len(valid)-3], // codec stream cut short
		flipped,              // bit flip inside the codec stream
		append(compressedHeader("snappy", 8, 0), valid[header:]...), // unknown codec
		// 16 MiB declared for a payload of under 100 bytes: far enough past
		// the ratio bound that a loosened bound shows as an allocation.
		append(compressedHeader("deflate", 1<<24, 2), valid[header:]...),
		append(bytes.Clone(valid), "junk"...),                      // framing slack after the stream's end
		CompressSegmentWith(NewWriter(8).Close(), Deflate).Bytes(), // no records
		{},
	}
}

// referenceInflate decodes a compressed segment with none of the package's
// decode path: the header through writable.DataInput, the codec stream
// through compress/flate over the rest of the buffer, the trailer through
// hash/crc32. It applies the format's rules — a codec named deflate, a raw
// length that holds a trailer and lies within maxDeflateRatio of the
// payload, a record count of at least zero, a codec stream that ends exactly
// at the raw length, a trailer that is the checksum of the bytes before it —
// and returns the raw IFile stream and the header's record count, or ok =
// false where a rule fails.
func referenceInflate(data []byte) (raw []byte, records int64, ok bool) {
	in := writable.NewDataInput(data)
	nameLen, err := in.ReadVLong()
	if err != nil || nameLen <= 0 || nameLen > maxCodecNameLen {
		return nil, 0, false
	}
	if name, err := in.ReadFull(int(nameLen)); err != nil || string(name) != "deflate" {
		return nil, 0, false
	}
	rawLen, err1 := in.ReadVLong()
	records, err2 := in.ReadVLong()
	if err1 != nil || err2 != nil || rawLen < 4 || records < 0 || rawLen > (int64(len(data))+64)*maxDeflateRatio {
		return nil, 0, false
	}
	zr := flate.NewReader(bytes.NewReader(data[in.Offset():]))
	raw = make([]byte, rawLen)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, 0, false
	}
	if n, err := io.ReadFull(zr, make([]byte, 1)); n != 0 || err != io.EOF {
		return nil, 0, false
	}
	body := raw[:len(raw)-4]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.BigEndian.Uint32(raw[len(body):]) {
		return nil, 0, false
	}
	return raw, records, true
}

// sourceRecords drains src, returning its records and the first error.
func sourceRecords(src RecordSource) (recs [][2]string, err error) {
	for {
		k, v, ok, err := src.Next()
		if err != nil || !ok {
			return recs, err
		}
		recs = append(recs, [2]string{string(k), string(v)})
	}
}

// FuzzCompressedSegment feeds arbitrary bytes to the compressed-segment
// decoders: ReadCompressedSegment, which inflates a fetched payload off the
// connection, and NewRunReader, which streams a compressed run file. Neither
// may panic or take more memory than the header's ratio bound admits: the
// fetch path is held to the bytes it asks the segment pool for (a warm pool
// serves them without a heap allocation, so the heap's counter would not
// show a loosened bound), the run reader, which draws on no pool, to the
// heap's allocation counter.
// ReadCompressedSegment is held to referenceInflate: it accepts exactly
// what the reference accepts, rejecting the rest with ErrCorruptSegment,
// and where both accept it yields the reference's bytes, record count and
// records. It must leave a framed stream in sync: it consumes exactly the
// payload, never the bytes after it. Where the run reader and the fetch
// path both read a stream to its end, they yield the same records.
func FuzzCompressedSegment(f *testing.F) {
	for _, seed := range compressedSegmentSeeds() {
		f.Add(seed)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 2*uint64(len(data)+64)*maxDeflateRatio + 1<<20
		next := []byte("next response")
		r := bytes.NewReader(append(bytes.Clone(data), next...))
		asked := 0
		restore := ObservePool(func(n int) { asked += n })
		streamed, streamErr := ReadCompressedSegment(r, len(data))
		restore()
		if limit := (len(data) + 64) * maxDeflateRatio; asked > limit {
			t.Fatalf("%d input bytes made ReadCompressedSegment ask the pool for %d bytes (ratio bound %d)", len(data), asked, limit)
		}
		if r.Len() != len(next) {
			t.Fatalf("streaming decoder left %d bytes of %d after the payload (err %v)", r.Len(), len(next), streamErr)
		}
		if streamErr != nil && !errors.Is(streamErr, ErrCorruptSegment) {
			t.Fatalf("rejected without ErrCorruptSegment: %v", streamErr)
		}

		raw, records, ok := referenceInflate(data)
		if ok != (streamErr == nil) {
			t.Fatalf("reference accepts: %v, ReadCompressedSegment err %v", ok, streamErr)
		}
		var fetched [][2]string
		fetchErr := streamErr
		if ok {
			if !bytes.Equal(streamed.Bytes(), raw) || int64(streamed.Records()) != records {
				t.Fatalf("decoders disagree: reference %d bytes %d records, streamed %d bytes %d records",
					len(raw), records, streamed.Len(), streamed.Records())
			}
			want, wantErr := sourceRecords(adopt(raw).NewReader())
			fetched, fetchErr = sourceRecords(streamed.NewReader())
			if (fetchErr == nil) != (wantErr == nil) || !slices.Equal(fetched, want) {
				t.Fatalf("reference read %d records (err %v), streamed %d (err %v)", len(want), wantErr, len(fetched), fetchErr)
			}
		}

		before := allocated()
		run, runErr := NewRunReader(bytes.NewReader(data), true)
		var fromRun [][2]string
		if runErr == nil {
			fromRun, runErr = sourceRecords(run)
			run.Close()
		}
		if spent := allocated() - before; spent > bound {
			t.Fatalf("%d input bytes made the run reader allocate %d bytes (bound %d)", len(data), spent, bound)
		}
		if fetchErr == nil && runErr == nil && !slices.Equal(fromRun, fetched) {
			t.Fatalf("run reader read %d records, the fetch path %d", len(fromRun), len(fetched))
		}
	})
}

// TestCompressedSegmentSeedVerdicts: of the seeds, the writer's own output,
// the empty segment and trailing framing slack decode; every other seed is
// a corrupt segment on both paths.
func TestCompressedSegmentSeedVerdicts(t *testing.T) {
	for i, seed := range compressedSegmentSeeds() {
		_, err := ReadCompressedSegment(bytes.NewReader(seed), len(seed))
		if validCompressedSeeds[i] != (err == nil) {
			t.Errorf("seed %d: err %v, want accepted=%v", i, err, validCompressedSeeds[i])
		}
	}
}

// spillKey is one FuzzSpillOrder record template: a partition byte and a key
// payload, encoded for the key type under test.
type spillKey struct {
	part    byte
	payload string
}

// spillOrderInput encodes a FuzzSpillOrder input: the partition count, the
// mode (key type in the low two bits, then the flag bits below), the record
// count, then the templates the records cycle through.
func spillOrderInput(partitions int, mode byte, n int, keys ...spillKey) []byte {
	out := []byte{byte(partitions - 1), mode, byte(n >> 8), byte(n)}
	for _, k := range keys {
		out = append(out, k.part, byte(len(k.payload)))
		out = append(out, k.payload...)
	}
	return out
}

// Spill-order modes: the key type, plus flag bits.
const (
	spillText        = 0
	spillBytes       = 1
	spillNoExtractor = 2 // raw keys under a reversed bytewise comparator
	// Text keys of the payload after its first byte, whose length header
	// is the two-byte vint 8f05 rather than 05 when that first byte is
	// odd, so keys the comparator holds equal can differ in their bytes.
	spillTextHeader = 3
	spillVary       = 4 // vary each key's last payload byte per pass over the templates
	// Pad keys and values to lengths on either side of the 1-, 2- and
	// 3-byte vint boundaries, changing from record to record (at most
	// spillWideRecords records): headers whose size differs from the
	// previous record's, and values larger than a chain's first chunk.
	spillWide = 8
	spillHuge = 16 // the middle record's value is larger than any chunk
	// Pad every value by spillLongValue bytes, as avg-1k's are (at most
	// spillLongRecords records): chains of several chunks, checksummed in
	// several shuffleCRCChunk steps while they are collected.
	spillLong = 32
	// The last record goes to the first template's partition with an empty
	// key payload, which sorts before any other under Text and
	// BytesWritable keys: a proof of order that breaks at the very end.
	spillBreak = 64
)

const (
	spillLongValue   = 1 << 10
	spillLongRecords = 1 << 10
)

// Record lengths the wide mode cycles through, and its record bound.
var (
	spillKeyWidths = []int{0, 127, 128, 255, 256, 300}
	spillValWidths = []int{0, 1, 127, 128, 255, 256, 65535, 65536}
)

const spillWideRecords = 128

// spillOrderSeeds aims each seed at one radix-sort boundary: equal
// prefixes, prefixes that differ only in their first or only in their last
// byte, ties in the prefix broken after it, ranges at the insertion cutoff
// and one past it, insertion-sorted ranges holding equal prefixes, and
// spills large enough to fan out over goroutines.
func spillOrderSeeds() [][]byte {
	paper := []spillKey{ // rand-10b's shape: four 10-byte keys, every key in every partition
		{0, "abcdefghij"}, {1, "bcdefghijk"}, {2, "cdefghijkl"}, {3, "defghijklm"}, {1, "abcdefghij"},
		{2, "bcdefghijk"}, {3, "cdefghijkl"}, {0, "defghijklm"}, {2, "abcdefghij"},
	}
	seeds := [][]byte{
		spillOrderInput(3, spillText, 200, spillKey{0, "all-equal-key"}, spillKey{1, "all-equal-key"}, spillKey{2, "all-equal-key"}),
		spillOrderInput(1, spillBytes, 300, spillKey{0, "bxxxxxxx"}, spillKey{0, "axxxxxxx"}, spillKey{0, "\xffxxxxxxx"}, spillKey{0, "\x00xxxxxxx"}),
		spillOrderInput(2, spillText, 300, spillKey{0, "aaaaaaa1"}, spillKey{1, "aaaaaaa0"}, spillKey{0, "aaaaaaa9"}, spillKey{0, "aaaaaaa0"}),
		spillOrderInput(2, spillBytes|spillVary, 400, spillKey{0, "prefix00-a"}, spillKey{1, "prefix00-bb"}, spillKey{0, "prefix00"}, spillKey{0, "prefix00-"}),
		spillOrderInput(1, spillText, radixCutoff, spillKey{0, "b"}, spillKey{0, "a"}, spillKey{0, "c"}),
		spillOrderInput(4, spillText, parallelSpillRecords+100, paper...),
		spillOrderInput(4, spillNoExtractor|spillVary, parallelSpillRecords+100, paper...),
		spillOrderInput(3, spillBytes|spillVary, 2*parallelSpillRecords, spillKey{0, "k"}, spillKey{1, "key-with-a-tail"}, spillKey{2, ""}, spillKey{0, "kez"}),
		spillOrderInput(2, spillNoExtractor, 100, spillKey{0, "b"}, spillKey{1, "ab"}, spillKey{0, ""}, spillKey{1, "abc"}),
		spillOrderInput(1, spillText, 40, spillKey{0, ""}, spillKey{0, "a"}, spillKey{0, "a\x00"}, spillKey{0, "ab"}),
	}
	// Two prefixes split the range first; each bucket then holds
	// radixCutoff-1, radixCutoff or radixCutoff+1 distinct prefixes.
	for _, size := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1} {
		seeds = append(seeds, spillOrderInput(1, spillText|spillVary, 2*size, spillKey{0, "a000"}, spillKey{0, "b000"}))
	}
	return append(seeds,
		// Chained, framed layout: one key per partition keeps arrival order,
		// so each chain of several chunks is handed over (spillSeedHandover).
		spillOrderInput(2, spillBytes, 8191, spillKey{0, "one-key-for-the-lot"}, spillKey{1, "another-single-key"}),
		// Lengths crossing vint boundaries record to record, values past the
		// first chunk, one partition in order and one not.
		spillOrderInput(2, spillBytes|spillWide, spillWideRecords, spillKey{0, "same"}, spillKey{1, "b"}, spillKey{1, "a"}),
		spillOrderInput(3, spillText|spillWide|spillVary, 100, spillKey{0, "x"}, spillKey{1, "y"}, spillKey{2, "zz"}),
		// A record larger than any chunk, in an ordered and in a sorted partition.
		spillOrderInput(2, spillBytes|spillWide|spillHuge, 40, spillKey{0, "k"}, spillKey{1, "m"}, spillKey{1, "l"}),
		// avg-1k's shape: one key per partition, chains of several chunks
		// checksummed in several steps as they are collected (spillSeedFolds).
		spillOrderInput(2, spillBytes|spillLong, spillLongRecords, spillKey{0, "avg-key-0"}, spillKey{1, "avg-key-1"}),
		// Order breaks on the last record, after 300 KiB were folded
		// (spillSeedLateBreak).
		spillOrderInput(1, spillText|spillLong|spillBreak, 300, spillKey{0, "key"}),
		// 05equal and 8f05equal, both the Text "equal": equal keys in
		// arrival order, not out of order (spillSeedEqualEncodings).
		spillOrderInput(1, spillTextHeader, 200, spillKey{0, "\x00equal"}, spillKey{0, "\x01equal"}),
		// A record larger than any chunk in a partition kept in order
		// (spillSeedHugeOrdered).
		spillOrderInput(1, spillBytes|spillHuge, 40, spillKey{0, "k"}),
	)
}

// Seeds whose spill path TestSpillOrderSeedPaths pins: the handover of a
// chain of several chunks, the copy of a partition out of arrival order,
// and one seed per way Commit's proof of order can go.
const (
	spillSeedHandover       = 13
	spillSeedCopied         = 1
	spillSeedFolds          = 17
	spillSeedLateBreak      = 18
	spillSeedEqualEncodings = 19
	spillSeedHugeOrdered    = 20
)

// decodeSpillOrder turns a FuzzSpillOrder input into a comparator, an
// extractor (nil for none) and a record stream. Values carry the record's
// index, so any reordering of equal keys is visible in the segment bytes.
func decodeSpillOrder(data []byte) (cmp writable.RawComparator, pf writable.PrefixFunc, partitions int, recs []spillRec, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, nil, false
	}
	partitions = 1 + int(data[0])%5
	mode := data[1]
	n := int(binary.BigEndian.Uint16(data[2:4])) & 0x1fff
	var keys []spillKey
	for rest := data[4:]; len(rest) >= 2; {
		l := min(int(rest[1])%24, len(rest)-2)
		keys = append(keys, spillKey{rest[0], string(rest[2 : 2+l])})
		rest = rest[2+l:]
	}
	if len(keys) == 0 {
		keys = []spillKey{{}}
	}
	encode := func(p []byte) []byte { return p }
	switch mode & 3 {
	case spillText:
		cmp, pf = writable.CompareText, mustPrefix("Text")
		encode = func(p []byte) []byte { return textKey(string(p)) }
	case spillBytes:
		cmp, pf = writable.CompareBytesWritable, mustPrefix("BytesWritable")
		encode = func(p []byte) []byte { return writable.Marshal(&writable.BytesWritable{Data: p}) }
	case spillNoExtractor:
		cmp = func(a, b []byte) int { return bytes.Compare(b, a) }
	case spillTextHeader:
		cmp, pf = writable.CompareText, mustPrefix("Text")
		encode = func(p []byte) []byte {
			if len(p) == 0 {
				return textKey("")
			}
			if s := p[1:]; p[0]&1 != 0 && len(s) <= 0xff {
				return append([]byte{0x8f, byte(len(s))}, s...) // one magnitude byte follows
			}
			return textKey(string(p[1:]))
		}
	}
	if mode&spillWide != 0 {
		n = min(n, spillWideRecords)
	}
	if mode&spillLong != 0 {
		n = min(n, spillLongRecords)
	}
	recs = make([]spillRec, n)
	for i := range recs {
		k := keys[i%len(keys)]
		if mode&spillBreak != 0 && i == n-1 {
			k = spillKey{part: keys[0].part}
		}
		p := []byte(k.payload)
		if mode&spillVary != 0 && len(p) > 0 {
			p[len(p)-1] ^= byte(i / len(keys))
		}
		val := binary.BigEndian.AppendUint32(nil, uint32(i))
		if mode&spillWide != 0 {
			p = append(p, make([]byte, max(0, spillKeyWidths[i%len(spillKeyWidths)]-len(p)))...)
			val = append(val, make([]byte, spillValWidths[i/2%len(spillValWidths)])...)
		}
		if mode&spillHuge != 0 && i == n/2 {
			val = append(val, make([]byte, maxChunkBytes)...)
		}
		if mode&spillLong != 0 {
			val = append(val, make([]byte, spillLongValue)...)
		}
		recs[i] = spillRec{part: int(k.part) % partitions, key: encode(p), val: val}
	}
	return cmp, pf, partitions, recs, true
}

// collectRecs buffers recs, odd ones through Reserve/Commit and even ones
// through Add, in a buffer they fill exactly.
func collectRecs(t *testing.T, cmp writable.RawComparator, pf writable.PrefixFunc, partitions int, recs []spillRec) *SortBuffer {
	t.Helper()
	capacity := 1
	for _, r := range recs {
		capacity += len(r.key) + len(r.val) + MetaBytesPerRecord
	}
	buf := NewSortBuffer(capacity, partitions, cmp)
	if pf != nil {
		buf.SetPrefixFunc(pf)
	}
	for i, r := range recs {
		if ok, err := put(buf, i%2 == 1, r); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	return buf
}

// spillRecs collects recs as collectRecs does and spills them.
func spillRecs(t *testing.T, cmp writable.RawComparator, pf writable.PrefixFunc, partitions int, recs []spillRec) []*Segment {
	t.Helper()
	buf := collectRecs(t, cmp, pf, partitions, recs)
	defer buf.Release()
	segs, _ := buf.Spill()
	return segs
}

func mustPrefix(name string) writable.PrefixFunc {
	pf, ok := writable.PrefixExtractor(name)
	if !ok {
		panic(name + " has no prefix extractor")
	}
	return pf
}

// FuzzSpillOrder holds Spill byte-identical to naiveSpill — a stable sort
// with the full comparator and nothing else — for fuzzed record streams of
// Text keys, BytesWritable keys and keys under a comparator alone (a buffer
// never given a prefix func sorts by writable.ByComparator), spilling at
// GOMAXPROCS 1 and 2. Each partition's bytes are gathered across its
// ranges, so a handed-over chain and a copied segment are held to the same
// bytes. Their run marks are held to the reference scan, bytes.Equal of
// consecutive keys: every repeat marked and nothing else, whether the
// partition was copied or handed over; and a merge of the partitions marks
// no record that is not a repeat. The committed seeds run under plain
// `go test`.
func FuzzSpillOrder(f *testing.F) {
	for _, seed := range spillOrderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cmp, pf, partitions, recs, ok := decodeSpillOrder(data)
		if !ok {
			return
		}
		want := naiveSpill(cmp, partitions, recs)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			segs := spillRecs(t, cmp, pf, partitions, recs)
			for p := range want {
				if !bytes.Equal(segs[p].Bytes(), want[p]) {
					t.Fatalf("GOMAXPROCS %d, %d records: partition %d differs from the naive stable sort", procs, len(recs), p)
				}
				checkMarks(t, fmt.Sprintf("GOMAXPROCS %d partition %d", procs, p), segs[p], true)
			}
			order := writable.ByComparator(cmp)
			if pf != nil {
				order.Prefix = pf
			}
			merged, _, err := Merge(order, segs)
			if err != nil {
				t.Fatal(err)
			}
			checkMarks(t, fmt.Sprintf("GOMAXPROCS %d merge", procs), merged, false)
		}
	})
}

// folded is the number of chain bytes c's checksum has folded.
func folded(c *chain) int {
	n := c.sum.off
	for _, ch := range c.chunks[:c.sum.k] {
		n += len(ch)
	}
	return n
}

// TestSpillOrderSeedPaths pins which path each seed takes. A partition
// whose records keep arrival order is its chain, handed over: the segment
// starts in the chain's first chunk. One the sort reorders is copied into a
// segment of exactly one range. Where a seed is aimed at a way Commit's
// proof of order can go, partition 0's chain is checked before the spill.
func TestSpillOrderSeedPaths(t *testing.T) {
	seeds := spillOrderSeeds()
	for _, tc := range []struct {
		name      string
		seed      int
		handedOff bool
		proof     func(c *chain, b *SortBuffer, recs []spillRec) string // why c missed the path, or ""
	}{
		{"chain-of-chunks", spillSeedHandover, true, nil},
		{"reordered", spillSeedCopied, false, nil},
		{"several-folds", spillSeedFolds, true, func(c *chain, _ *SortBuffer, _ []spillRec) string {
			// A fold step takes at most a shuffleCRCChunk and a record.
			if c.unordered || c.open < 2 || folded(c) < 3*shuffleCRCChunk {
				return fmt.Sprintf("unordered=%v, %d chunks, %d bytes folded: want an ordered chain of 3+ chunks folded in 3+ steps", c.unordered, c.open+1, folded(c))
			}
			return ""
		}},
		{"breaks-on-last", spillSeedLateBreak, false, func(c *chain, b *SortBuffer, _ []spillRec) string {
			if !c.unordered || c.last != len(b.meta)-2 || folded(c) <= shuffleCRCChunk {
				return fmt.Sprintf("unordered=%v, proven up to record %d of %d, %d bytes folded: want the break on the last record, past %d folded bytes",
					c.unordered, c.last, len(b.meta), folded(c), shuffleCRCChunk)
			}
			return ""
		}},
		{"equal-encodings", spillSeedEqualEncodings, true, func(c *chain, _ *SortBuffer, recs []spillRec) string {
			encodings := map[string]bool{}
			for _, r := range recs {
				encodings[string(r.key)] = true
			}
			if c.unordered || !encodings["\x05equal"] || !encodings["\x8f\x05equal"] {
				return fmt.Sprintf("unordered=%v, key encodings %q: want 05equal and 8f05equal held in order", c.unordered, slices.Sorted(maps.Keys(encodings)))
			}
			return ""
		}},
		{"record-past-a-chunk", spillSeedHugeOrdered, true, func(c *chain, _ *SortBuffer, _ []spillRec) string {
			longest := 0
			for _, ch := range c.chunks[:c.open+1] {
				longest = max(longest, len(ch))
			}
			if c.unordered || longest <= maxChunkBytes {
				return fmt.Sprintf("unordered=%v, longest chunk %d bytes: want an ordered chain holding a record larger than %d", c.unordered, longest, maxChunkBytes)
			}
			return ""
		}},
	} {
		cmp, pf, partitions, recs, _ := decodeSpillOrder(seeds[tc.seed])
		buf := collectRecs(t, cmp, pf, partitions, recs)
		if tc.proof != nil {
			if why := tc.proof(&buf.chains[0], buf, recs); why != "" {
				t.Errorf("%s (seed %d): %s", tc.name, tc.seed, why)
			}
		}
		firsts := make([]*byte, partitions)
		for p := range firsts {
			if c := &buf.chains[p]; buf.partRecs[p] > 0 {
				firsts[p] = &c.chunks[0][0]
			}
		}
		segs, _ := buf.Spill()
		buf.Release()
		for p, seg := range segs {
			if seg.Records() == 0 {
				continue
			}
			ranges := seg.AppendRanges(nil)
			if handed := &ranges[0][0] == firsts[p]; handed != tc.handedOff || !handed && len(ranges) != 1 {
				t.Errorf("%s (seed %d) partition %d: handed over = %v in %d ranges, want handed over = %v", tc.name, tc.seed, p, handed, len(ranges), tc.handedOff)
			}
		}
	}
}

// marksFrameSegment is the segment FuzzMarksFrame's frames follow: 300
// records of 8-byte keys in runs of three, every third record the head of a
// run, so its marks take five words.
func marksFrameSegment() *Segment {
	w := NewWriter(300 * 12)
	for i := 0; i < 300; i++ {
		w.Append([]byte(fmt.Sprintf("key-%04d", i/3)), nil)
		if i%3 != 0 {
			w.mark()
		}
	}
	return w.Close()
}

// marksFrameSeeds is the named seed list of FuzzMarksFrame: the segment's
// own frame, an empty one, a flipped bit, a word count past what the
// segment can hold and past what any can, and frames cut short.
func marksFrameSeeds() [][]byte {
	valid := marksFrameSegment().AppendMarksFrame(nil)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x08
	return [][]byte{
		valid,
		new(Segment).AppendMarksFrame(nil),
		flipped,
		binary.BigEndian.AppendUint32(nil, uint32(markWords(marksFrameSegment().Len())+1)),
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		valid[:len(valid)-1],
		valid[:2],
		{},
	}
}

// FuzzMarksFrame feeds arbitrary bytes to ReadMarksFrame as the frame behind
// a segment of 300 records, and behind a rejected payload (no segment). It
// must give the segment the marks the bytes encode when their checksum
// holds, or no marks and a typed error — ErrMarksFrame for a checksum that
// does not hold or a count no segment of that size can need,
// io.ErrUnexpectedEOF for bytes cut short — and never panic. A frame it
// accepts is consumed to its last byte and no further, and nothing it
// allocates is sized by words it has not read: past what the segment
// bounds, only the heap statistics' slack (they count small allocations a
// span at a time). The statistics are the whole process's, and the fuzzing
// engine allocates beside the call, so the read is measured three times and
// the least growth judged: an allocation the bytes size shows in all three.
func FuzzMarksFrame(f *testing.F) {
	for _, seed := range marksFrameSeeds() {
		f.Add(seed)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	base := marksFrameSegment()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, segment := range []bool{false, true} {
			var (
				r    *bytes.Reader
				into *Segment
				err  error
				grew uint64 = math.MaxUint64
			)
			for range 3 {
				r = bytes.NewReader(data)
				if into = nil; segment {
					into = &Segment{data: base.data, records: base.records}
				}
				before := allocated()
				err = ReadMarksFrame(r, into)
				grew = min(grew, allocated()-before)
			}
			if bound := uint64(8*markWords(base.Len()) + 64<<10); grew > bound {
				t.Fatalf("%d frame bytes made ReadMarksFrame allocate %d bytes (bound %d)", len(data), grew, bound)
			}
			if err != nil {
				if !errors.Is(err, ErrMarksFrame) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped error %v", err)
				}
				if into != nil && into.marks != nil {
					t.Fatalf("error %v, yet the segment was given marks", err)
				}
				continue
			}
			n := int(binary.BigEndian.Uint32(data))
			if consumed := len(data) - r.Len(); consumed != 8+8*n {
				t.Fatalf("a frame of %d words consumed %d bytes", n, consumed)
			}
			if frameCRC(0, data[:4+8*n]) != binary.BigEndian.Uint32(data[4+8*n:]) {
				t.Fatal("a frame whose checksum does not hold was accepted")
			}
			if into == nil || into.marks == nil {
				continue
			}
			// Accepted marks are the encoded words, bar the first record's
			// bit.
			for w := range n {
				want := binary.BigEndian.Uint64(data[4+8*w:])
				if w == 0 {
					want &^= 1
				}
				if into.marks[w] != want {
					t.Fatalf("word %d: got %016x, frame holds %016x", w, into.marks[w], want)
				}
			}
		}
	})
}
