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
	out     *writable.DataOutput
	crc     uint32
	summed  int // bytes of out already folded into crc
	records int
	closed  bool
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

// pooledBuf returns an empty buffer with at least the given capacity,
// recycled from the segment pool when possible.
func pooledBuf(capacity int) []byte {
	pool := bufClass(capacity)
	if bp, _ := pool.Get().(*[]byte); bp != nil {
		if cap(*bp) >= capacity {
			return (*bp)[:0]
		}
		pool.Put(bp) // same class but shorter: leave it for a caller it fits
	}
	return make([]byte, 0, capacity)
}

// GrabBuf returns a length-n buffer drawn from the segment pool, for
// callers that receive segment wire bytes from outside and adopt them via
// SegmentFromBytes: recycling the segment then returns the buffer here.
func GrabBuf(n int) []byte { return pooledBuf(n)[:n] }

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
	return &Segment{data: w.out.Bytes(), records: w.records, verified: true}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcObserver, when a test sets it, sees the size of every fold.
var crcObserver func(n int)

// UpdateCRC folds p into a running IFile checksum (CRC32-Castagnoli). Every
// checksum in the package goes through it, which lets network readers verify
// a segment incrementally while streaming it off the wire, instead of
// re-scanning the whole buffer afterwards.
func UpdateCRC(crc uint32, p []byte) uint32 {
	if crcObserver != nil {
		crcObserver(len(p))
	}
	return crc32.Update(crc, castagnoli, p)
}

// Segment is one finished sorted run of records (a spill partition, a merge
// output, or a shuffled map output).
//
// One checksum per side of the wire: a segment remembers that its CRC trailer
// has been proven against these very bytes, and a Reader skips its
// end-of-stream re-scan for such a segment. Only code in this package that
// has just computed or checked the trailer sets the mark — Writer.Close,
// ReadSegment and ReadCompressedSegment while streaming a payload in, and
// Verify. Bytes of unproven origin (SegmentFromBytes, Decompress, anything
// read back from a file) are checked when read, as ever.
type Segment struct {
	data       []byte
	records    int
	verified   bool // the trailer is known to match data
	compressed bool
}

// SegmentFromBytes adopts a serialized IFile stream of unproven origin;
// record count is discovered, and the checksum checked, on read.
func SegmentFromBytes(data []byte) *Segment { return &Segment{data: data, records: -1} }

// shuffleCRCChunk is the granularity of incremental checksumming, on the
// sealing side and while streaming a payload in: big enough to amortize
// calls (and read syscalls), small enough that the just-written or just-read
// bytes are still cache-hot when the CRC folds them in.
const shuffleCRCChunk = 128 << 10

// ReadSegment consumes exactly n bytes from r — one raw IFile segment, e.g.
// a shuffle response on a connection's reader, or a compressed one coming
// out of its codec — into a pooled buffer,
// folding the CRC over the bytes as they arrive, so the returned segment is
// already verified and nothing scans it again. A trailer that does not match
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

// Bytes returns the raw IFile stream including trailer.
func (s *Segment) Bytes() []byte { return s.data }

// Len returns the segment's size in bytes.
func (s *Segment) Len() int { return len(s.data) }

// Records returns the record count, or -1 when unknown (adopted segments).
func (s *Segment) Records() int { return s.records }

// Recycle returns the segment's backing buffer to the writer pool and
// clears the segment. Call it only when nothing can reference the segment
// or views into its bytes anymore — e.g. a spill run after its bytes were
// merged into the final map output. Using the segment (or byte slices read
// from it) after Recycle is a data race with the pool's next writer.
func (s *Segment) Recycle() {
	if s.data == nil {
		return
	}
	recycleBuf(s.data)
	s.data = nil
	s.records = 0
	s.verified = false
	s.compressed = false
}

// NewReader opens the segment for iteration. Compressed segments must be
// Decompress()ed first.
func (s *Segment) NewReader() *Reader {
	if s.compressed {
		panic("kvbuf: NewReader on compressed segment; call Decompress first")
	}
	return &Reader{in: writable.NewDataInput(s.data), data: s.data, verified: s.verified}
}

// Reader iterates an IFile segment. At EOF it consumes the CRC trailer and,
// unless the segment was already proven against it, verifies it.
type Reader struct {
	in       *writable.DataInput
	data     []byte
	verified bool
	records  int
	done     bool
}

// Next returns the next record's key and value (views into the segment; copy
// to retain). ok=false signals a clean EOF.
func (r *Reader) Next() (key, val []byte, ok bool, err error) {
	if r.done {
		return nil, nil, false, nil
	}
	kl, err := r.in.ReadVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: reading key length: %w", err)
	}
	if kl == EOFMarker {
		vl, err := r.in.ReadVInt()
		if err != nil || vl != EOFMarker {
			return nil, nil, false, fmt.Errorf("kvbuf: malformed EOF marker")
		}
		if err := r.verify(); err != nil {
			return nil, nil, false, err
		}
		r.done = true
		return nil, nil, false, nil
	}
	vl, err := r.in.ReadVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: reading value length: %w", err)
	}
	if kl < 0 || vl < 0 {
		return nil, nil, false, fmt.Errorf("kvbuf: negative record lengths %d/%d", kl, vl)
	}
	key, err = r.in.ReadFull(int(kl))
	if err != nil {
		return nil, nil, false, err
	}
	val, err = r.in.ReadFull(int(vl))
	if err != nil {
		return nil, nil, false, err
	}
	r.records++
	return key, val, true, nil
}

func (r *Reader) verify() error {
	body := r.data[:r.in.Offset()]
	want, err := r.in.ReadInt32()
	if err != nil {
		return fmt.Errorf("kvbuf: missing checksum: %w", err)
	}
	if r.verified && r.in.Remaining() == 0 {
		return nil // the proven trailer is the one just consumed, over this very body
	}
	if got := int32(UpdateCRC(0, body)); got != want {
		return fmt.Errorf("kvbuf: checksum mismatch: %08x != %08x", uint32(got), uint32(want))
	}
	return nil
}

// RecordsRead returns how many records Next has yielded.
func (r *Reader) RecordsRead() int { return r.records }

// Verify checks the segment's CRC32 trailer without parsing records: the
// last four bytes must be the Castagnoli checksum of everything before
// them. Shuffle clients call it on received payloads so a truncated or
// corrupted transfer is rejected at fetch time (and can be retried) instead
// of surfacing later as a merge error. Compressed segments are verified
// after decompression. A raw segment that passes is marked proven.
func (s *Segment) Verify() error {
	if s.compressed {
		d, err := s.Decompress()
		if err != nil {
			return err
		}
		err = d.Verify()
		d.Recycle()
		return err
	}
	if len(s.data) < 4 {
		return fmt.Errorf("%w: segment of %d bytes cannot hold a checksum trailer", ErrCorruptSegment, len(s.data))
	}
	if got, want := UpdateCRC(0, s.data[:len(s.data)-4]), trailerCRC(s.data); got != want {
		return fmt.Errorf("%w: checksum mismatch: %08x != %08x", ErrCorruptSegment, got, want)
	}
	s.verified = true
	return nil
}
