package kvbuf

import (
	"compress/flate"
	"errors"
	"fmt"
	"io"

	"mrmicro/internal/writable"
)

// Compressed segment wire format:
//
//	vint  codec name length
//	      codec name bytes
//	vlong raw (uncompressed) IFile length, trailer included
//	vlong record count
//	      codec stream of the raw IFile bytes
//
// The header makes compressed segments self-describing on the wire: the
// fetch side recovers the record count (so counter identities hold under
// compression) and the exact raw size (one exact-size allocation instead of
// io.ReadAll growth) before touching the codec stream.

// ErrCorruptSegment marks a segment payload that was read in full but is
// damaged: a CRC mismatch of the (decompressed) bytes, or for a compressed
// segment a malformed header, a broken codec stream or a declared length the
// stream doesn't match. The transfer is damaged but the connection is intact,
// so fetch paths retry it without reconnecting.
var ErrCorruptSegment = errors.New("kvbuf: corrupt segment")

// maxDeflateRatio bounds how far a declared raw length may exceed the
// compressed payload (DEFLATE tops out near 1032:1). Headers claiming more
// are corrupt and rejected before any allocation happens.
const maxDeflateRatio = 1032

const maxCodecNameLen = 32

// CompressSegmentWith returns a compressed copy of s in the compressed wire
// format, carrying s's run marks: they number the records of the raw stream
// the payload inflates to. The result draws its buffer from the segment
// pool, so Recycle applies; s itself is untouched. A segment of several
// ranges is gathered into one pooled buffer first.
func CompressSegmentWith(s *Segment, c Codec) *Segment {
	if s.compressed {
		panic("kvbuf: CompressSegmentWith on already-compressed segment")
	}
	raw := s.data
	if len(s.rest) > 0 {
		raw = s.gather(pooledBuf(s.Len()))
		defer recycleBuf(raw)
	}
	name := c.Name()
	out := writable.NewDataOutputOn(pooledBuf(len(name) + 24 + len(raw)/2))
	out.WriteVInt(int32(len(name)))
	out.Write([]byte(name))
	out.WriteVLong(int64(len(raw)))
	out.WriteVLong(int64(s.records))
	buf := c.Compress(out.Bytes(), raw)
	return &Segment{data: buf, marks: s.marks, records: s.records, compressed: true}
}

// Compressed reports whether the segment holds codec-compressed records.
func (s *Segment) Compressed() bool { return s.compressed }

// expectStreamEnd checks the codec stream ends cleanly exactly where the
// declared raw length says it does. Only io.EOF is a clean end: deflate
// returns it after consuming the final-block marker, while a stream whose
// tail was cut off yields io.ErrUnexpectedEOF even when every data byte was
// recovered — truncation must not pass just because the CRC happens to.
func expectStreamEnd(zr io.Reader) error {
	var one [1]byte
	n, err := io.ReadFull(zr, one[:])
	if n != 0 {
		return fmt.Errorf("%w: stream longer than declared raw length", ErrCorruptSegment)
	}
	if err != io.EOF {
		return fmt.Errorf("%w: stream ended badly: %v", ErrCorruptSegment, err)
	}
	return nil
}

// ReadCompressedSegment consumes exactly payloadLen bytes from r — one
// segment in the compressed wire format — and inflates it into an
// exact-size pooled buffer, folding the IFile CRC over the decompressed
// bytes as they stream out of the codec. The compressed payload is never
// materialized: r is typically a connection's buffered reader, and
// decompression is fused with CRC verification in one pass.
//
// On any error wrapping ErrCorruptSegment the remaining payload bytes have
// been drained, so a framed stream (e.g. pipelined shuffle responses) stays
// in sync and the connection can be reused. Other errors are I/O failures
// of r itself.
func ReadCompressedSegment(r io.Reader, payloadLen int) (*Segment, error) {
	lr := &io.LimitedReader{R: r, N: int64(payloadLen)}
	seg, err := readCompressedPayload(lr, payloadLen)
	if err != nil && !errors.Is(err, ErrCorruptSegment) {
		return nil, err
	}
	// The inflater stops at the codec stream's end, a corrupt payload
	// wherever it broke: drain the rest of the payload either way.
	if _, derr := io.Copy(io.Discard, lr); derr != nil {
		if seg != nil {
			seg.Recycle()
		}
		return nil, derr
	}
	return seg, err
}

func readCompressedPayload(lr *io.LimitedReader, payloadLen int) (*Segment, error) {
	c, rawLen, records, err := readCompressedHeader(headerReader{lr}, int64(payloadLen))
	if err != nil {
		return nil, err
	}
	zr := c.NewReader(lr)
	defer zr.Close()
	// The decompressed bytes are a raw IFile stream: read and check them as
	// one, folding the CRC over each chunk as it comes out of the codec.
	seg, err := ReadSegment(zr, int(rawLen))
	if err != nil {
		if errors.Is(err, ErrCorruptSegment) {
			return nil, err
		}
		return nil, corruptOrIO(err, "short codec stream")
	}
	if err := expectStreamEnd(zr); err != nil {
		seg.Recycle()
		return nil, err
	}
	seg.records = int(records)
	return seg, nil
}

// readCompressedHeader reads the compressed segment header off br: the one
// header parser of the format, for fetched payloads and run files alike. A
// codec name this package does not know, a raw length too short to hold an
// IFile trailer or a negative record count is corrupt, and so is a raw
// length past what DEFLATE can expand a payload of payloadLen bytes to
// (payloadLen < 0: unknown, no ratio bound).
func readCompressedHeader(br io.ByteReader, payloadLen int64) (c Codec, rawLen, records int64, err error) {
	nameLen, err := readStreamVLong(br)
	if err != nil || nameLen <= 0 || nameLen > maxCodecNameLen {
		return nil, 0, 0, corruptOrIO(err, "bad codec name length")
	}
	var name [maxCodecNameLen]byte
	for i := range name[:nameLen] {
		if name[i], err = br.ReadByte(); err != nil {
			return nil, 0, 0, corruptOrIO(err, "truncated header")
		}
	}
	if c, _ = CodecByName(string(name[:nameLen])); c == nil {
		return nil, 0, 0, fmt.Errorf("%w: unknown codec %q", ErrCorruptSegment, name[:nameLen])
	}
	if rawLen, err = readStreamVLong(br); err != nil {
		return nil, 0, 0, corruptOrIO(err, "bad header lengths")
	}
	if records, err = readStreamVLong(br); err != nil {
		return nil, 0, 0, corruptOrIO(err, "bad header lengths")
	}
	if rawLen < 4 || records < 0 || payloadLen >= 0 && rawLen > (payloadLen+64)*maxDeflateRatio {
		return nil, 0, 0, fmt.Errorf("%w: bad header lengths", ErrCorruptSegment)
	}
	return c, rawLen, records, nil
}

// corruptOrIO classifies a decode-path error: stream-shape failures (early
// EOF inside the bounded payload, codec decode errors) are corrupt-segment
// errors; anything else is an I/O failure of the underlying reader.
func corruptOrIO(err error, what string) error {
	if err == nil {
		return fmt.Errorf("%w: %s", ErrCorruptSegment, what)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF || isCodecError(err) {
		return fmt.Errorf("%w: %s: %v", ErrCorruptSegment, what, err)
	}
	return err
}

// isCodecError reports whether err came from the codec itself rather than
// the underlying reader. compress/flate's CorruptInputError and
// InternalError are the only non-IO errors its Read surfaces.
func isCodecError(err error) bool {
	var corrupt flate.CorruptInputError
	var internal flate.InternalError
	return errors.As(err, &corrupt) || errors.As(err, &internal)
}

// headerReader reads the few header bytes one at a time off the bounded
// payload reader.
type headerReader struct{ r io.Reader }

func (h headerReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(h.r, b[:])
	return b[0], err
}

// readStreamVLong reads a Hadoop vlong from a byte stream, mirroring
// writable.DataInput.ReadVLong.
func readStreamVLong(br io.ByteReader) (int64, error) {
	first, err := br.ReadByte()
	if err != nil {
		return 0, err
	}
	n := writable.VIntSize(first)
	if n == 1 {
		return int64(int8(first)), nil
	}
	var v int64
	for k := 0; k < n-1; k++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v = v<<8 | int64(b)
	}
	if writable.VIntNegative(first) {
		return v ^ -1, nil
	}
	return v, nil
}
