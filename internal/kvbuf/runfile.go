package kvbuf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"mrmicro/internal/writable"
)

// This file is the streaming side of the IFile format: reading sorted runs
// off an io.Reader (a reduce-side spill file) and writing merged runs back
// without ever materializing them, so a reduce whose input exceeds its
// memory budget moves records at O(one record) of residency. The on-disk
// bytes are exactly the segment wire formats — a raw IFile stream, or the
// compressed segment format — so spill runs reuse the same parsers, CRC
// trailer and codec header as shuffled map outputs.

// RecordSource is a sorted cursor over key/value records: anything a merge
// can drain. *Reader (in-memory segments) and *RunReader (on-disk runs)
// both satisfy it. Returned slices are views owned by the source: a value
// is valid only until the next Next call, a key until the second following
// one, so a merge can hold the previous key against the next (SourceMerger's
// run check).
type RecordSource interface {
	Next() (key, val []byte, ok bool, err error)
}

// sourceEntry is one source's cursor in a SourceMerger.
type sourceEntry struct {
	src      RecordSource
	rd       *Reader // src, when it is an in-memory segment's Reader
	key, val []byte
	prefix   uint64 // the merge order's prefix of key
	eof      bool
	marked   bool // key carries its segment's run mark: the previous key, byte for byte
	index    int  // tie-break: earlier source wins, keeping merges stable
}

func (e *sourceEntry) advance(prefix writable.PrefixFunc) error {
	k, v, ok, err := e.src.Next()
	if err != nil {
		return err
	}
	if !ok {
		e.eof = true
		e.key, e.val = nil, nil
		return nil
	}
	e.key, e.val = k, v
	if e.marked = e.rd != nil && e.rd.marked(); !e.marked {
		e.prefix = prefix(k) // a marked key's prefix is the one it repeats
	}
	return nil
}

// SourceMerger is a pull-based k-way merge over RecordSources: the one merge
// heap, under MergeStream's in-memory segments as much as mixed memory/disk
// inputs. Ties between equal keys break toward the lower source index, so
// callers that order sources by map-index range get byte-identical output
// to a flat merge of the underlying segments. The pull shape (instead of an
// emit callback) lets a consumer interleave its own work — e.g. running the
// reducer group by group — without buffering the merged stream.
//
// The binary min-heap is hand-rolled. It deliberately avoids container/heap:
// the interface indirection and Swap/Less method dispatch dominate
// small-record merges, and the merge inner loop only ever needs "replace the
// root, sift it down". Not even that while the winner stays inside a run of
// equal keys: a byte-equal next key leaves its (key, index) — the heap
// minimum — unchanged, so one byte check replaces the sift.
//
// A record carrying its segment's run mark (the map side proved its key
// equal to the one before it) skips even that check: it stays at the head with
// its prefix taken over and its key bytes untouched. The decision is still
// counted, so the comparison tally does not depend on where the proof was
// made.
//
// Each head carries its key's prefix under the merge's KeyOrder (the one the
// spill sorted by), taken once as its source advances: an ordering decision
// is KeyOrder.Compare, which calls the comparator only on a prefix tie, and
// the run check compares prefixes before bytes. Equal keys always have equal
// prefixes, so the output is the comparator-only merge's
// (writable.ByComparator), decision for decision.
type SourceMerger struct {
	order   writable.KeyOrder
	entries []*sourceEntry
	comps   int64
	started bool
	repeat  bool // the last record came from the same source as the one before, with the same key
}

// NewSourceMerger primes a cursor on every source. Sources that are empty
// from the start simply never surface.
func NewSourceMerger(order writable.KeyOrder, srcs []RecordSource) (*SourceMerger, error) {
	m := &SourceMerger{order: order, entries: make([]*sourceEntry, 0, len(srcs))}
	for i, s := range srcs {
		rd, _ := s.(*Reader)
		e := &sourceEntry{src: s, rd: rd, index: i}
		if err := e.advance(order.Prefix); err != nil {
			return nil, err
		}
		if !e.eof {
			m.entries = append(m.entries, e)
		}
	}
	m.initHeap()
	return m, nil
}

// less is one ordering decision, counted whether the prefixes or the
// comparator made it.
func (m *SourceMerger) less(a, b *sourceEntry) bool {
	m.comps++
	if c := m.order.Compare(a.key, a.prefix, b.key, b.prefix); c != 0 {
		return c < 0
	}
	return a.index < b.index
}

func (m *SourceMerger) siftDown(i int) {
	e := m.entries
	n := len(e)
	root := e[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && m.less(e[r], e[child]) {
			child = r
		}
		if !m.less(e[child], root) {
			break
		}
		e[i] = e[child]
		i = child
	}
	e[i] = root
}

func (m *SourceMerger) initHeap() {
	for i := len(m.entries)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// Next returns the next record in merged key order. The slices are views
// owned by the winning source, valid until the following Next call.
func (m *SourceMerger) Next() (key, val []byte, ok bool, err error) {
	if m.started {
		// Advance the cursor whose record the previous call handed out.
		e := m.entries[0]
		prev, prevPrefix := e.key, e.prefix // prev is still valid: a source's key outlives one more Next
		if err := e.advance(m.order.Prefix); err != nil {
			return nil, nil, false, err
		}
		m.repeat = false
		if e.eof {
			last := len(m.entries) - 1
			m.entries[0] = m.entries[last]
			m.entries[last] = nil
			m.entries = m.entries[:last]
			if len(m.entries) > 1 {
				m.siftDown(0)
			}
		} else if m.comps++; e.marked || e.prefix == prevPrefix && bytes.Equal(e.key, prev) {
			m.repeat = true // a byte-equal key is still the minimum
		} else {
			m.siftDown(0)
		}
	}
	if len(m.entries) == 0 {
		return nil, nil, false, nil
	}
	m.started = true
	e := m.entries[0]
	return e.key, e.val, true, nil
}

// Prefix is the order's prefix of the key the last Next returned. Call it
// only after a Next that returned a record.
func (m *SourceMerger) Prefix() uint64 { return m.entries[0].prefix }

// Repeat reports whether the record the last Next returned came from the
// same source as the one before it, with a byte-identical key: it belongs
// to the previous record's key group whatever the grouping order.
func (m *SourceMerger) Repeat() bool { return m.repeat }

// Comparisons returns the key comparisons the merge has made so far, counted
// as MergeSources counts them.
func (m *SourceMerger) Comparisons() int64 { return m.comps }

// MergeSources drains a SourceMerger through emit, returning the number of
// key comparisons performed.
func MergeSources(order writable.KeyOrder, srcs []RecordSource, emit func(key, val []byte) error) (comparisons int64, err error) {
	m, err := NewSourceMerger(order, srcs)
	if err != nil {
		return 0, err // priming compares nothing
	}
	for {
		k, v, ok, err := m.Next()
		if err != nil || !ok {
			return m.comps, err
		}
		if err := emit(k, v); err != nil {
			return m.comps, err
		}
	}
}

// StreamWriter writes IFile records to an io.Writer, folding the CRC32
// trailer incrementally — the merge side of a multi-pass on-disk merge,
// where the output run is too large to buffer as a Segment.
type StreamWriter struct {
	w       *bufio.Writer
	crc     uint32
	frame   *writable.DataOutput
	records int64
	bytes   int64
	closed  bool
	err     error
}

// NewStreamWriter wraps w (typically an *os.File) for IFile output.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriterSize(w, 64<<10), frame: writable.NewDataOutputOn(make([]byte, 0, 16))}
}

func (sw *StreamWriter) emit(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = UpdateCRC(sw.crc, p)
	sw.bytes += int64(len(p))
	if _, err := sw.w.Write(p); err != nil {
		sw.err = err
	}
}

// Append writes one record.
func (sw *StreamWriter) Append(key, val []byte) error {
	if sw.closed {
		panic("kvbuf: append after close")
	}
	sw.frame.Reset()
	sw.frame.WriteVInt(int32(len(key)))
	sw.frame.WriteVInt(int32(len(val)))
	sw.emit(sw.frame.Bytes())
	sw.emit(key)
	sw.emit(val)
	if sw.err == nil {
		sw.records++
	}
	return sw.err
}

// Records returns the number of appended records.
func (sw *StreamWriter) Records() int64 { return sw.records }

// Close writes the EOF markers and CRC trailer and flushes. It returns the
// record count and total bytes written (trailer included).
func (sw *StreamWriter) Close() (records, bytes int64, err error) {
	if sw.closed {
		panic("kvbuf: double close")
	}
	sw.closed = true
	sw.frame.Reset()
	sw.frame.WriteVInt(EOFMarker)
	sw.frame.WriteVInt(EOFMarker)
	sw.emit(sw.frame.Bytes())
	if sw.err != nil {
		return sw.records, sw.bytes, sw.err
	}
	var trailer [4]byte
	trailer[0] = byte(sw.crc >> 24)
	trailer[1] = byte(sw.crc >> 16)
	trailer[2] = byte(sw.crc >> 8)
	trailer[3] = byte(sw.crc)
	if _, err := sw.w.Write(trailer[:]); err != nil {
		return sw.records, sw.bytes, err
	}
	sw.bytes += 4
	return sw.records, sw.bytes, sw.w.Flush()
}

// RunReader streams one IFile run off an io.Reader — a raw segment stream,
// or (compressed=true) the compressed segment wire format, inflated on the
// fly. The CRC trailer is folded incrementally and verified at EOF, so a
// damaged run file fails its merge instead of producing silent garbage.
// Key/value slices returned by Next live in reader-owned buffers reused
// across records, exactly the RecordSource contract: keys alternate between
// two buffers, so a key outlives the next Next call; the value does not.
type RunReader struct {
	br      *bufio.Reader
	zr      io.ReadCloser // codec stream when compressed; nil otherwise
	left    int64         // compressed: raw bytes the header declares and Next has not read
	crc     uint32
	vint    [9]byte // the framing vint being read, folded into crc in one call
	keyBufs [2][]byte
	valBuf  []byte
	records int
	done    bool
}

// NewRunReader opens a run stream. For compressed runs it reads the
// compressed segment header through the parser ReadCompressedSegment uses,
// with the ratio bound taken from r's size when r reports one (a file
// section, a bytes.Reader), and holds the run's records to the declared raw
// length.
func NewRunReader(r io.Reader, compressed bool) (*RunReader, error) {
	base := bufio.NewReaderSize(r, 64<<10)
	if !compressed {
		return &RunReader{br: base, left: math.MaxInt64}, nil
	}
	size := int64(-1)
	if s, ok := r.(interface{ Size() int64 }); ok {
		size = s.Size()
	}
	c, rawLen, _, err := readCompressedHeader(base, size)
	if err != nil {
		return nil, err
	}
	zr := c.NewReader(base)
	return &RunReader{br: bufio.NewReaderSize(zr, 64<<10), zr: zr, left: rawLen}, nil
}

// readVInt reads one framing vint, folding its bytes into the CRC.
func (r *RunReader) readVInt() (int64, error) {
	first, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	n := writable.VIntSize(first)
	r.vint[0] = first
	var v int64
	for k := 1; k < n; k++ {
		b, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		r.vint[k] = b
		v = v<<8 | int64(b)
	}
	r.crc = UpdateCRC(r.crc, r.vint[:n])
	r.left -= int64(n)
	if n == 1 {
		return int64(int8(first)), nil
	}
	if writable.VIntNegative(first) {
		return v ^ -1, nil
	}
	return v, nil
}

func (r *RunReader) readFull(buf []byte) error {
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	r.crc = UpdateCRC(r.crc, buf)
	r.left -= int64(len(buf))
	return nil
}

func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n, n+n/4)
	}
	return buf[:n]
}

// Next returns the next record; ok=false signals a clean, CRC-verified EOF.
func (r *RunReader) Next() (key, val []byte, ok bool, err error) {
	if r.done {
		return nil, nil, false, nil
	}
	kl, err := r.readVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: run: reading key length: %w", err)
	}
	if kl == EOFMarker {
		vl, err := r.readVInt()
		if err != nil || vl != EOFMarker {
			return nil, nil, false, fmt.Errorf("kvbuf: run: malformed EOF marker")
		}
		if err := r.verifyTrailer(); err != nil {
			return nil, nil, false, err
		}
		r.done = true
		return nil, nil, false, nil
	}
	vl, err := r.readVInt()
	if err != nil {
		return nil, nil, false, fmt.Errorf("kvbuf: run: reading value length: %w", err)
	}
	if kl < 0 || vl < 0 || kl > math.MaxInt32 || vl > math.MaxInt32 {
		return nil, nil, false, fmt.Errorf("kvbuf: run: record lengths %d/%d out of vint range", kl, vl)
	}
	if kl+vl > r.left {
		return nil, nil, false, fmt.Errorf("%w: run: record of %d bytes past the declared raw length", ErrCorruptSegment, kl+vl)
	}
	kb := &r.keyBufs[r.records&1]
	*kb = grow(*kb, int(kl))
	if err := r.readFull(*kb); err != nil {
		return nil, nil, false, err
	}
	r.valBuf = grow(r.valBuf, int(vl))
	if err := r.readFull(r.valBuf); err != nil {
		return nil, nil, false, err
	}
	r.records++
	return *kb, r.valBuf, true, nil
}

// verifyTrailer reads the 4-byte CRC (not folded) and checks it against the
// running checksum; for compressed runs it also requires the codec stream
// to end exactly here, at the declared raw length, mirroring
// ReadCompressedSegment's truncation check.
func (r *RunReader) verifyTrailer() error {
	var trailer [4]byte
	if _, err := io.ReadFull(r.br, trailer[:]); err != nil {
		return fmt.Errorf("kvbuf: run: missing checksum: %w", err)
	}
	want := uint32(trailer[0])<<24 | uint32(trailer[1])<<16 | uint32(trailer[2])<<8 | uint32(trailer[3])
	if r.crc != want {
		return fmt.Errorf("kvbuf: run: checksum mismatch: %08x != %08x", r.crc, want)
	}
	if r.zr != nil {
		if _, err := r.br.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: codec stream longer than declared run", ErrCorruptSegment)
		}
		if r.left != 4 {
			return fmt.Errorf("%w: run's raw length is %d bytes off its header's", ErrCorruptSegment, r.left-4)
		}
	}
	return nil
}

// RecordsRead returns how many records Next has yielded.
func (r *RunReader) RecordsRead() int { return r.records }

// Close releases the codec stream state, if any. The underlying reader
// (file) stays open; it belongs to the caller.
func (r *RunReader) Close() error {
	if r.zr != nil {
		err := r.zr.Close()
		r.zr = nil
		return err
	}
	return nil
}
