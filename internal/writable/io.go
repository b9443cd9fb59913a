// Package writable reimplements the part of Hadoop's Writable serialization
// layer that the suite's jobs use: the Writable contract, the four box types
// a job can name (BytesWritable and Text, the paper's intermediate data
// types; LongWritable; NullWritable), Hadoop's variable-length integer
// encoding, and the raw (serialized-form) comparators and key orders of the
// sort and merge phases.
//
// Wire formats are byte-identical to Hadoop's so the micro-benchmark's
// intermediate-data sizes match what a real Hadoop job would shuffle.
package writable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when a deserialization runs out of input.
var ErrTruncated = errors.New("writable: truncated input")

// DataOutput is an append-only buffer with Java DataOutput-compatible
// big-endian primitives.
type DataOutput struct {
	buf []byte
}

// NewDataOutput returns an empty output buffer with the given capacity hint.
func NewDataOutput(capacity int) *DataOutput {
	return &DataOutput{buf: make([]byte, 0, capacity)}
}

// NewDataOutputOn returns an output that appends into buf's storage,
// starting empty. Callers use it to recycle buffers across writers.
func NewDataOutputOn(buf []byte) *DataOutput { return &DataOutput{buf: buf[:0]} }

// Bytes returns the accumulated bytes (not a copy).
func (o *DataOutput) Bytes() []byte { return o.buf }

// Len returns the number of bytes written.
func (o *DataOutput) Len() int { return len(o.buf) }

// Reset truncates the buffer for reuse.
func (o *DataOutput) Reset() { o.buf = o.buf[:0] }

// Truncate drops every byte written past the first n.
func (o *DataOutput) Truncate(n int) { o.buf = o.buf[:n] }

// ResetOn repositions the output at the start of buf's storage, as
// NewDataOutputOn does for a new one. Writes past cap(buf) move the output to
// a grown copy, as append does; Bytes then no longer aliases buf.
func (o *DataOutput) ResetOn(buf []byte) { o.buf = buf[:0] }

// WriteU8 appends one byte.
func (o *DataOutput) WriteU8(b byte) { o.buf = append(o.buf, b) }

// WriteInt32 appends a big-endian 32-bit value (Java writeInt).
func (o *DataOutput) WriteInt32(v int32) {
	o.buf = append(o.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// WriteInt64 appends a big-endian 64-bit value (Java writeLong).
func (o *DataOutput) WriteInt64(v int64) {
	o.buf = append(o.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Write appends raw bytes.
func (o *DataOutput) Write(p []byte) (int, error) {
	o.buf = append(o.buf, p...)
	return len(p), nil
}

// WriteVInt appends v in Hadoop's variable-length format.
func (o *DataOutput) WriteVInt(v int32) { o.WriteVLong(int64(v)) }

// WriteVLong appends v in Hadoop WritableUtils.writeVLong format: values in
// [-112, 127] take one byte; otherwise a length/sign prefix byte in
// [-127, -113] followed by the magnitude's big-endian bytes.
func (o *DataOutput) WriteVLong(v int64) {
	if v >= -112 && v <= 127 {
		o.WriteU8(byte(v))
		return
	}
	length := int64(-112)
	if v < 0 {
		v ^= -1
		length = -120
	}
	for tmp := v; tmp != 0; tmp >>= 8 {
		length--
	}
	o.WriteU8(byte(length))
	var n int64
	if length < -120 {
		n = -(length + 120)
	} else {
		n = -(length + 112)
	}
	for idx := n; idx != 0; idx-- {
		shift := uint((idx - 1) * 8)
		o.WriteU8(byte(v >> shift))
	}
}

// DataInput reads Java DataInput-compatible primitives from a byte slice.
type DataInput struct {
	buf  []byte
	off  int
	view bool
}

// SetView switches the input's view mode. In view mode BytesWritable and
// Text decode to a view of the input — its bytes, capacity capped at their
// length, so an append reallocates instead of writing past them — instead of
// a copy into the box's own storage. A box so decoded aliases the input: it
// must not outlive the input's bytes, nor be decoded again by an input in
// copy mode, which would copy into those bytes.
func (i *DataInput) SetView(on bool) { i.view = on }

// keep lands a decoded payload b in a box whose storage is dst: a view of b
// in view mode, a copy into dst otherwise.
func (i *DataInput) keep(dst, b []byte) []byte {
	if i.view {
		return b[:len(b):len(b)]
	}
	return append(dst[:0], b...)
}

// NewDataInput wraps buf for reading.
func NewDataInput(buf []byte) *DataInput { return &DataInput{buf: buf} }

// Remaining returns the number of unread bytes.
func (i *DataInput) Remaining() int { return len(i.buf) - i.off }

// Offset returns the read position.
func (i *DataInput) Offset() int { return i.off }

// A successful read below is a bounds check and a load with no call under
// it. Errors, and vints
// longer than one byte, are built out of line (short and readVLongSlow), so
// no read runs a chain of calls on the record path.

// short builds the error for a read of n bytes past the end of the input.
func (i *DataInput) short(n int) error {
	if n < 0 {
		return fmt.Errorf("writable: negative length %d", n)
	}
	return fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, i.Remaining())
}

// ReadByte reads one byte.
func (i *DataInput) ReadByte() (byte, error) {
	if i.off < len(i.buf) {
		b := i.buf[i.off]
		i.off++
		return b, nil
	}
	return 0, i.short(1)
}

// ReadInt32 reads a big-endian 32-bit value.
func (i *DataInput) ReadInt32() (int32, error) {
	if b := i.buf[i.off:]; len(b) >= 4 {
		i.off += 4
		return int32(binary.BigEndian.Uint32(b)), nil
	}
	return 0, i.short(4)
}

// ReadInt64 reads a big-endian 64-bit value.
func (i *DataInput) ReadInt64() (int64, error) {
	if b := i.buf[i.off:]; len(b) >= 8 {
		i.off += 8
		return int64(binary.BigEndian.Uint64(b)), nil
	}
	return 0, i.short(8)
}

// ReadFull reads exactly n bytes (a view into the buffer, not a copy).
func (i *DataInput) ReadFull(n int) ([]byte, error) {
	if uint(n) <= uint(len(i.buf)-i.off) { // a negative n wraps above any length
		b := i.buf[i.off : i.off+n]
		i.off += n
		return b, nil
	}
	return nil, i.short(n)
}

// ReadVInt reads a Hadoop variable-length int, rejecting out-of-range values.
func (i *DataInput) ReadVInt() (int32, error) {
	v, err := i.ReadVLong()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		return 0, fmt.Errorf("writable: vint value %d out of int32 range", v)
	}
	return int32(v), nil
}

// ReadVLong reads a Hadoop variable-length long.
func (i *DataInput) ReadVLong() (int64, error) {
	if v, ok := OneByteVInt(i.buf[i.off:]); ok {
		i.off++
		return int64(v), nil
	}
	return i.readVLongSlow()
}

// OneByteVInt decodes the vint at the head of b when its encoding is that one
// byte, as it is for every value in [-112, 127], and reports whether it was.
// It is the one decoder of that case: ReadVLong and the record paths that
// read lengths straight from a buffer go through it, and hand anything else
// to the general decoder.
func OneByteVInt(b []byte) (int, bool) {
	if len(b) > 0 && int8(b[0]) >= -112 {
		return int(int8(b[0])), true
	}
	return 0, false
}

// readVLongSlow decodes a vlong of any length, or reports the truncation.
func (i *DataInput) readVLongSlow() (int64, error) {
	first, err := i.ReadByte()
	if err != nil {
		return 0, err
	}
	n := VIntSize(first)
	if n == 1 {
		return int64(int8(first)), nil
	}
	var v int64
	for k := 0; k < n-1; k++ {
		b, err := i.ReadByte()
		if err != nil {
			return 0, err
		}
		v = v<<8 | int64(b)
	}
	if VIntNegative(first) {
		return v ^ -1, nil
	}
	return v, nil
}

// VIntSize returns the total encoded length implied by a vint's first byte,
// mirroring WritableUtils.decodeVIntSize.
func VIntSize(first byte) int {
	v := int(int8(first)) // widen before negating: int8(-128) has no int8 negation
	switch {
	case v >= -112:
		return 1
	case v < -120:
		return -119 - v
	default:
		return -111 - v
	}
}

// VIntNegative reports whether a vint's first byte marks a negative value,
// mirroring WritableUtils.isNegativeVInt.
func VIntNegative(first byte) bool {
	v := int8(first)
	return v < -120 || (v >= -112 && v < 0)
}

// VLongEncodedLen returns the number of bytes WriteVLong will use for v.
func VLongEncodedLen(v int64) int {
	if v >= -112 && v <= 127 {
		return 1
	}
	if v < 0 {
		v ^= -1
	}
	n := 1
	for tmp := v; tmp != 0; tmp >>= 8 {
		n++
	}
	return n
}
