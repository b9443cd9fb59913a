// Package kvbuf implements the map-side intermediate data machinery of
// Hadoop MapReduce: the in-memory sort buffer (io.sort.mb semantics), the
// IFile spill-segment format (vint-framed key/value records with a CRC32
// trailer), and multi-way merge over sorted segments.
//
// localrun uses it to move real bytes; the simulated engines use its size
// arithmetic (records, bytes, spill counts) to charge time.
package kvbuf

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"net"
	"sync"

	"mrmicro/internal/writable"
)

// EOFMarker is the key-length value that terminates an IFile stream,
// matching Hadoop's IFile.EOF_MARKER.
const EOFMarker = -1

// Writer serializes records into IFile format: for each record a vint key
// length, vint value length, then the raw bytes; the stream ends with two
// -1 vints and a 4-byte CRC32 (Castagnoli) of everything before it. The
// checksum is folded as the stream grows, a shuffleCRCChunk at a time, so the
// seal reads bytes that are still cache-warm instead of re-scanning the whole
// segment at Close.
type Writer struct {
	out      *writable.DataOutput
	crc      uint32
	summed   int // bytes of out already folded into crc
	records  int
	marks    []uint64 // run marks of the records appended so far (see Segment)
	markHint int      // records the segment is expected to hold: the marks' first size
	closed   bool
}

// segBufPools recycles segment backing buffers between short-lived segments
// (spill outputs consumed by a merge, intermediate merge runs, fetched map
// outputs), one pool per power-of-two size class so that spill, merge-output
// and fetch buffers of different sizes do not evict each other. Buffers enter
// a pool only through Segment.Recycle and recycleBuf, whose callers assert
// the bytes are dead; like anything in a sync.Pool they stay collectable.
var segBufPools [bits.UintSize + 1]sync.Pool

func bufClass(capacity int) *sync.Pool { return &segBufPools[bits.Len(uint(capacity))] }

// NewWriter returns an IFile writer with the given initial capacity hint.
// Writers draw their buffer from the segment pool; a caller that sizes
// capacity from the exact bytes it is about to append gets a single
// allocation at worst and a pooled buffer at best.
func NewWriter(capacity int) *Writer {
	return &Writer{out: writable.NewDataOutputOn(pooledBuf(capacity))}
}

// poolObserver, when a test sets it, sees the capacity of every buffer a
// caller asks the segment pool for, whether the pool or makeBuf serves it.
var poolObserver func(n int)

// pooledBuf returns an empty buffer with at least the given capacity,
// recycled from the segment pool when possible, else fresh from makeBuf.
func pooledBuf(capacity int) []byte {
	if poolObserver != nil {
		poolObserver(capacity)
	}
	pool := bufClass(capacity)
	if bp, _ := pool.Get().(*[]byte); bp != nil {
		if cap(*bp) >= capacity {
			return (*bp)[:0]
		}
		pool.Put(bp) // same class but shorter: leave it for a caller it fits
	}
	return makeBuf(capacity)
}

// GrabBuf returns a length-n buffer drawn from the segment pool, for
// callers that hold segment wire bytes of their own for a while; RecycleBuf
// returns it.
func GrabBuf(n int) []byte { return pooledBuf(n)[:n] }

// RecycleBuf returns a buffer GrabBuf handed out to the segment pool. Call
// it only once nothing references the buffer's bytes.
func RecycleBuf(buf []byte) { recycleBuf(buf) }

// recycleBuf returns a dead buffer to the segment pool.
func recycleBuf(buf []byte) {
	b := buf[:0]
	bufClass(cap(b)).Put(&b)
}

// Append adds one record.
func (w *Writer) Append(key, val []byte) {
	if w.closed {
		panic("kvbuf: append after close")
	}
	w.out.WriteVInt(int32(len(key)))
	w.out.WriteVInt(int32(len(val)))
	w.out.Write(key)
	w.out.Write(val)
	w.records++
	w.foldDue()
}

// appendFramed adds one record already framed as an IFile record. It does
// not fold, so that it inlines into the spill's copy loop: the checksum
// catches up at the next checkpoint, mark or Close.
func (w *Writer) appendFramed(rec []byte) {
	w.out.Write(rec)
	w.records++
}

// mark sets the run mark of the record just appended: its caller has proven
// the key byte-identical to the previous record's.
func (w *Writer) mark() {
	w.marks = setMark(w.marks, w.records-1, w.markHint)
	w.foldDue()
}

// writerMark is where a Writer stood between two records: the state cut
// restores.
type writerMark struct {
	len, summed, records int
	crc                  uint32
}

// checkpoint marks where the writer stands, for a later cut.
func (w *Writer) checkpoint() writerMark {
	w.foldDue()
	return writerMark{len: w.out.Len(), summed: w.summed, records: w.records, crc: w.crc}
}

// cut drops every record appended since the checkpoint at, with its run
// marks, and takes the checksum back to where it stood there.
func (w *Writer) cut(at writerMark) {
	w.out.Truncate(at.len)
	w.summed, w.records, w.crc = at.summed, at.records, at.crc
	clearMarks(w.marks, at.records)
}

// foldDue folds once a shuffleCRCChunk of bytes awaits the checksum.
func (w *Writer) foldDue() {
	if w.out.Len()-w.summed >= shuffleCRCChunk {
		w.fold()
	}
}

func (w *Writer) fold() {
	w.crc = UpdateCRC(w.crc, w.out.Bytes()[w.summed:])
	w.summed = w.out.Len()
}

// Records returns the number of appended records.
func (w *Writer) Records() int { return w.records }

// Len returns the bytes written so far (excluding the unwritten trailer).
func (w *Writer) Len() int { return w.out.Len() }

// Close writes the EOF marker and checksum and returns the finished segment.
func (w *Writer) Close() *Segment {
	if w.closed {
		panic("kvbuf: double close")
	}
	w.closed = true
	w.out.WriteVInt(EOFMarker)
	w.out.WriteVInt(EOFMarker)
	w.fold()
	w.out.WriteInt32(int32(w.crc))
	return &Segment{data: w.out.Bytes(), marks: w.marks, records: w.records, verified: true}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcObserver, when a test sets it, sees the size of every fold.
var crcObserver func(n int)

// UpdateCRC folds p into a running IFile checksum (CRC32-Castagnoli). Every
// checksum of segment bytes in the package goes through it, which lets
// network readers verify a segment incrementally while streaming it off the
// wire, instead of re-scanning the whole buffer afterwards.
func UpdateCRC(crc uint32, p []byte) uint32 {
	if crcObserver != nil {
		crcObserver(len(p))
	}
	return crc32.Update(crc, castagnoli, p)
}

// Segment is one finished sorted run of records (a spill partition, a merge
// output, or a shuffled map output).
//
// Its stream is a list of byte ranges: one, except for a chain SortBuffer.Spill
// handed over, whose chunks are the ranges; no record straddles two.
//
// One checksum per side of the wire: a segment remembers that its CRC trailer
// has been proven against these very bytes, and a Reader skips its
// end-of-stream re-scan for such a segment. Only code in this package that
// has just computed or checked the trailer sets the mark — Writer.Close,
// SortBuffer.Spill's handover, and ReadSegment and ReadCompressedSegment
// while streaming a payload in. A segment without the mark is checked when
// read, as ever.
//
// A segment may carry run marks: one bit per record, set only when the
// record's key is byte-identical to the previous record's, so a merge can
// keep a marked record at the heap's head without reading its key again.
// They are proven on the map side, where the keys are compared anyway: by
// the spill's copy pass (spillPartition), by Commit's proof of order for a
// handed-over chain (prove) and by a merge from its SourceMerger's Repeat.
// A mark is never wrong, but marks may be incomplete: a record left
// unmarked is merely compared. They travel with the segment through
// compression and over the shuffle in a checksummed side frame
// (AppendMarksFrame, ReadMarksFrame); a segment without marks reads exactly
// as a marked one, only slower.
type Segment struct {
	data       []byte   // the stream, or its first range
	rest       [][]byte // the ranges after data, in order
	marks      []uint64 // run marks, bit i for record i; nil when none were proven
	records    int
	verified   bool // the trailer is known to match the stream
	compressed bool
}

// shuffleCRCChunk is the granularity of incremental checksumming, on the
// sealing side and while streaming a payload in: big enough to amortize
// calls (and read syscalls), small enough that the just-written or just-read
// bytes are still cache-hot when the CRC folds them in.
const shuffleCRCChunk = 128 << 10

// ReadSegment consumes exactly n bytes from r — one raw IFile segment, e.g.
// a shuffle response on a connection's reader, or a compressed one coming
// out of its codec — into a pooled buffer,
// folding the CRC over the bytes as they arrive, so the returned segment is
// already verified and nothing scans it again. It carries no run marks: the
// fetch path reads those from the frame behind the payload (ReadMarksFrame).
// A trailer that does not match
// is an ErrCorruptSegment: the payload was consumed, a framed stream stays in
// sync and the fetch can be retried on the same connection. Other errors are
// I/O failures of r itself.
func ReadSegment(r io.Reader, n int) (*Segment, error) {
	data := GrabBuf(n)
	body := max(n-4, 0)
	var crc uint32
	for off := 0; off < n; {
		end := min(off+shuffleCRCChunk, n)
		if _, err := io.ReadFull(r, data[off:end]); err != nil {
			recycleBuf(data)
			return nil, err
		}
		if off < body {
			crc = UpdateCRC(crc, data[off:min(end, body)])
		}
		off = end
	}
	if n < 4 {
		recycleBuf(data)
		return nil, fmt.Errorf("%w: segment of %d bytes cannot hold a checksum trailer", ErrCorruptSegment, n)
	}
	if want := trailerCRC(data); crc != want {
		recycleBuf(data)
		return nil, fmt.Errorf("%w: checksum mismatch: %08x != %08x", ErrCorruptSegment, crc, want)
	}
	return &Segment{data: data, records: -1, verified: true}, nil
}

// trailerCRC decodes the big-endian checksum in data's last four bytes.
func trailerCRC(data []byte) uint32 {
	t := data[len(data)-4:]
	return uint32(t[0])<<24 | uint32(t[1])<<16 | uint32(t[2])<<8 | uint32(t[3])
}

// Bytes returns the raw IFile stream including trailer: the segment's
// buffer when it is one range, its ranges gathered into a new one when not.
func (s *Segment) Bytes() []byte {
	if len(s.rest) == 0 {
		return s.data
	}
	return s.gather(make([]byte, 0, s.Len()))
}

// gather appends the segment's ranges to dst.
func (s *Segment) gather(dst []byte) []byte {
	dst = append(dst, s.data...)
	for _, r := range s.rest {
		dst = append(dst, r...)
	}
	return dst
}

// AppendRanges appends the segment's byte ranges, in stream order, to dst:
// a gather list for one writev.
func (s *Segment) AppendRanges(dst [][]byte) [][]byte {
	return append(append(dst, s.data), s.rest...)
}

// WriteTo writes the segment's stream to w, range by range.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	bufs := net.Buffers(s.AppendRanges(nil))
	return bufs.WriteTo(w)
}

// Len returns the segment's size in bytes.
func (s *Segment) Len() int {
	n := len(s.data)
	for _, r := range s.rest {
		n += len(r)
	}
	return n
}

// Records returns the record count, or -1 when unknown (a raw segment
// ReadSegment streamed in).
func (s *Segment) Records() int { return s.records }

// Recycle returns the segment's backing buffers to the writer pool and
// clears the segment. Call it only when nothing can reference the segment
// or views into its bytes anymore — e.g. a spill run after its bytes were
// merged into the final map output. Using the segment (or byte slices read
// from it) after Recycle is a data race with the pool's next writer.
func (s *Segment) Recycle() {
	if s.data == nil {
		return
	}
	recycleBuf(s.data)
	for _, r := range s.rest {
		recycleBuf(r)
	}
	s.data, s.rest, s.marks = nil, nil, nil
	s.records = 0
	s.verified = false
	s.compressed = false
}

// NewReader opens the segment for iteration. A compressed segment has no
// records to iterate: ReadCompressedSegment inflates its bytes.
func (s *Segment) NewReader() *Reader {
	if s.compressed {
		panic("kvbuf: NewReader on compressed segment; inflate it through ReadCompressedSegment")
	}
	return &Reader{data: s.data, rest: s.rest, marks: s.marks, verified: s.verified}
}

// Reader iterates an IFile segment. At EOF it consumes the CRC trailer and,
// unless the segment was already proven against it, verifies it.
type Reader struct {
	data     []byte   // the range being read
	rest     [][]byte // the ranges after it
	marks    []uint64 // the segment's run marks
	crc      uint32   // checksum of the ranges before data, when not proven
	off      int      // read position in data
	verified bool
	records  int
	done     bool
}

// Next returns the next record's key and value (views into the segment; copy
// to retain). ok=false signals a clean EOF.
func (r *Reader) Next() (key, val []byte, ok bool, err error) {
	// A record whose two lengths are one-byte vints is sliced straight from
	// the buffer. The EOF marker (-1), longer lengths and every error take
	// next, the general decoder.
	if d := r.data[r.off:]; !r.done {
		if kl, ok := writable.OneByteVInt(d); ok && kl >= 0 {
			if vl, ok := writable.OneByteVInt(d[1:]); ok && vl >= 0 && kl+vl <= len(d)-2 {
				r.off += 2 + kl + vl
				r.records++
				return d[2 : 2+kl], d[2+kl : 2+kl+vl], true, nil
			}
		}
	}
	return r.next()
}

// next is the general decoder: every record Next's one-byte case does not
// take, the EOF marker and the CRC trailer.
func (r *Reader) next() (key, val []byte, ok bool, err error) {
	if r.done {
		return nil, nil, false, nil
	}
	if r.off == len(r.data) && len(r.rest) > 0 {
		if !r.verified {
			r.crc = UpdateCRC(r.crc, r.data)
		}
		r.data, r.rest, r.off = r.rest[0], r.rest[1:], 0
		return r.Next()
	}
	in := writable.NewDataInput(r.data[r.off:])
	defer func() { r.off += in.Offset() }()
	kl, err := in.ReadVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: reading key length: %w", err)
	}
	if kl == EOFMarker {
		vl, err := in.ReadVInt()
		if err != nil || vl != EOFMarker {
			return nil, nil, false, fmt.Errorf("kvbuf: malformed EOF marker")
		}
		if err := r.verify(in); err != nil {
			return nil, nil, false, err
		}
		r.done = true
		return nil, nil, false, nil
	}
	vl, err := in.ReadVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: reading value length: %w", err)
	}
	if kl < 0 || vl < 0 {
		return nil, nil, false, fmt.Errorf("kvbuf: negative record lengths %d/%d", kl, vl)
	}
	key, err = in.ReadFull(int(kl))
	if err != nil {
		return nil, nil, false, err
	}
	val, err = in.ReadFull(int(vl))
	if err != nil {
		return nil, nil, false, err
	}
	r.records++
	return key, val, true, nil
}

// verify consumes the CRC trailer that follows the EOF marker — in reads the
// bytes from r.off and stands just past the marker — and checks it against
// everything before it.
func (r *Reader) verify(in *writable.DataInput) error {
	body := r.data[:r.off+in.Offset()]
	want, err := in.ReadInt32()
	if err != nil {
		return fmt.Errorf("kvbuf: missing checksum: %w", err)
	}
	if r.verified && in.Remaining() == 0 && len(r.rest) == 0 {
		return nil // the proven trailer is the one just consumed, over this very body
	}
	if got := int32(UpdateCRC(r.crc, body)); got != want {
		return fmt.Errorf("kvbuf: checksum mismatch: %08x != %08x", uint32(got), uint32(want))
	}
	return nil
}

// RecordsRead returns how many records Next has yielded.
func (r *Reader) RecordsRead() int { return r.records }

// marked reports the run mark of the record Next just returned: true when
// its key was proven byte-identical to the previous record's.
func (r *Reader) marked() bool {
	i := r.records - 1
	return i >= 0 && i>>6 < len(r.marks) && r.marks[i>>6]&(1<<(i&63)) != 0
}
