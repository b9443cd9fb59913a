package kvbuf

import (
	"bytes"
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

// CompressSegment returns a DEFLATE-compressed copy of the segment in the
// compressed wire format. Shorthand for CompressSegmentWith(s, Deflate).
func CompressSegment(s *Segment) (*Segment, error) {
	return CompressSegmentWith(s, Deflate), nil
}

// CompressSegmentWith returns a compressed copy of s in the compressed wire
// format. The result draws its buffer from the segment pool, so Recycle
// applies; s itself is untouched.
func CompressSegmentWith(s *Segment, c Codec) *Segment {
	if s.compressed {
		panic("kvbuf: CompressSegmentWith on already-compressed segment")
	}
	name := c.Name()
	out := writable.NewDataOutputOn(pooledBuf(len(name) + 24 + len(s.data)/2))
	out.WriteVInt(int32(len(name)))
	out.Write([]byte(name))
	out.WriteVLong(int64(len(s.data)))
	out.WriteVLong(int64(s.records))
	buf := c.Compress(out.Bytes(), s.data)
	return &Segment{data: buf, records: s.records, compressed: true}
}

// CompressedSegmentFromBytes adopts wire bytes in the compressed segment
// format, recovering the record count from the header.
func CompressedSegmentFromBytes(data []byte) (*Segment, error) {
	_, _, records, _, err := parseCompressedHeader(data)
	if err != nil {
		return nil, err
	}
	return &Segment{data: data, records: records, compressed: true}, nil
}

// Compressed reports whether the segment holds codec-compressed records.
func (s *Segment) Compressed() bool { return s.compressed }

func parseCompressedHeader(data []byte) (c Codec, rawLen, records int, body []byte, err error) {
	in := writable.NewDataInput(data)
	nameLen, err := in.ReadVInt()
	if err != nil || nameLen <= 0 || nameLen > maxCodecNameLen {
		return nil, 0, 0, nil, fmt.Errorf("%w: bad codec name length", ErrCorruptSegment)
	}
	nameBytes, err := in.ReadFull(int(nameLen))
	if err != nil {
		return nil, 0, 0, nil, fmt.Errorf("%w: truncated header", ErrCorruptSegment)
	}
	c, ok := CodecByName(string(nameBytes))
	if !ok || c == nil {
		return nil, 0, 0, nil, fmt.Errorf("%w: unknown codec %q", ErrCorruptSegment, nameBytes)
	}
	rawLen64, err1 := in.ReadVLong()
	records64, err2 := in.ReadVLong()
	body = data[in.Offset():]
	if err1 != nil || err2 != nil || rawLen64 < 4 || records64 < 0 ||
		rawLen64 > (int64(len(body))+64)*maxDeflateRatio {
		return nil, 0, 0, nil, fmt.Errorf("%w: bad header lengths", ErrCorruptSegment)
	}
	return c, int(rawLen64), int(records64), body, nil
}

// Decompress materializes the raw IFile stream from a compressed segment
// into an exact-size pooled buffer. The raw segment carries the header's
// record count.
func (s *Segment) Decompress() (*Segment, error) {
	if !s.compressed {
		return s, nil
	}
	c, rawLen, records, body, err := parseCompressedHeader(s.data)
	if err != nil {
		return nil, err
	}
	zr := c.NewReader(bytes.NewReader(body))
	defer zr.Close()
	buf := pooledBuf(rawLen)[:rawLen]
	if _, err := io.ReadFull(zr, buf); err != nil {
		recycleBuf(buf)
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	if err := expectStreamEnd(zr); err != nil {
		recycleBuf(buf)
		return nil, err
	}
	return &Segment{data: buf, records: records}, nil
}

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
	if err != nil {
		if errors.Is(err, ErrCorruptSegment) {
			if _, derr := io.Copy(io.Discard, lr); derr != nil {
				return nil, derr
			}
		}
		return nil, err
	}
	// The inflater stops at the codec stream's end; drain whatever framing
	// slack follows it inside the payload.
	if _, derr := io.Copy(io.Discard, lr); derr != nil {
		seg.Recycle()
		return nil, derr
	}
	return seg, nil
}

func readCompressedPayload(lr *io.LimitedReader, payloadLen int) (*Segment, error) {
	hr := &headerReader{r: lr}
	nameLen, err := readStreamVLong(hr)
	if err != nil || nameLen <= 0 || nameLen > maxCodecNameLen {
		return nil, corruptOrIO(err, "bad codec name length")
	}
	var nameBuf [maxCodecNameLen]byte
	if _, err := io.ReadFull(hr, nameBuf[:nameLen]); err != nil {
		return nil, corruptOrIO(err, "truncated header")
	}
	c, ok := CodecByName(string(nameBuf[:nameLen]))
	if !ok || c == nil {
		return nil, fmt.Errorf("%w: unknown codec %q", ErrCorruptSegment, nameBuf[:nameLen])
	}
	rawLen64, err1 := readStreamVLong(hr)
	records64, err2 := readStreamVLong(hr)
	if err1 != nil {
		return nil, corruptOrIO(err1, "bad header lengths")
	}
	if err2 != nil {
		return nil, corruptOrIO(err2, "bad header lengths")
	}
	if rawLen64 < 4 || records64 < 0 || rawLen64 > (int64(payloadLen)+64)*maxDeflateRatio {
		return nil, fmt.Errorf("%w: bad header lengths", ErrCorruptSegment)
	}
	rawLen := int(rawLen64)

	// readerOnly hides headerReader's ReadByte so flate buffers reads in
	// large chunks itself; the LimitedReader keeps it inside the payload.
	zr := c.NewReader(readerOnly{lr})
	defer zr.Close()
	// The decompressed bytes are a raw IFile stream: read and check them as
	// one, folding the CRC over each chunk as it comes out of the codec.
	seg, err := ReadSegment(zr, rawLen)
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
	seg.records = int(records64)
	return seg, nil
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

func (h *headerReader) Read(p []byte) (int, error) { return h.r.Read(p) }

func (h *headerReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(h.r, b[:])
	return b[0], err
}

// readerOnly strips io.ByteReader from its wrapped reader so compress/flate
// installs its own internal buffering (bulk reads) instead of going byte at
// a time.
type readerOnly struct{ r io.Reader }

func (r readerOnly) Read(p []byte) (int, error) { return r.r.Read(p) }

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
