// Package writable reimplements Hadoop's Writable serialization layer: the
// Writable/WritableComparable contracts, the standard box types
// (IntWritable, LongWritable, BytesWritable, Text, ...), Hadoop's variable-
// length integer encoding, and raw (serialized-form) comparators used by the
// sort and merge phases.
//
// Wire formats are byte-identical to Hadoop's so the micro-benchmark's
// intermediate-data sizes match what a real Hadoop job would shuffle.
package writable

import (
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

// ResetOn repositions the output at the start of buf's storage, as
// NewDataOutputOn does for a new one. Writes past cap(buf) move the output to
// a grown copy, as append does; Bytes then no longer aliases buf.
func (o *DataOutput) ResetOn(buf []byte) { o.buf = buf[:0] }

// WriteU8 appends one byte.
func (o *DataOutput) WriteU8(b byte) { o.buf = append(o.buf, b) }

// WriteBool appends a Java boolean (0 or 1).
func (o *DataOutput) WriteBool(v bool) {
	if v {
		o.WriteU8(1)
	} else {
		o.WriteU8(0)
	}
}

// WriteUint16 appends a big-endian 16-bit value (Java writeShort/writeChar).
func (o *DataOutput) WriteUint16(v uint16) {
	o.buf = append(o.buf, byte(v>>8), byte(v))
}

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

// WriteFloat32 appends IEEE-754 bits big-endian (Java writeFloat).
func (o *DataOutput) WriteFloat32(v float32) { o.WriteInt32(int32(math.Float32bits(v))) }

// WriteFloat64 appends IEEE-754 bits big-endian (Java writeDouble).
func (o *DataOutput) WriteFloat64(v float64) { o.WriteInt64(int64(math.Float64bits(v))) }

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
	buf []byte
	off int
}

// NewDataInput wraps buf for reading.
func NewDataInput(buf []byte) *DataInput { return &DataInput{buf: buf} }

// Remaining returns the number of unread bytes.
func (i *DataInput) Remaining() int { return len(i.buf) - i.off }

// Offset returns the read position.
func (i *DataInput) Offset() int { return i.off }

func (i *DataInput) need(n int) error {
	if i.Remaining() < n {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, i.Remaining())
	}
	return nil
}

// ReadByte reads one byte.
func (i *DataInput) ReadByte() (byte, error) {
	if err := i.need(1); err != nil {
		return 0, err
	}
	b := i.buf[i.off]
	i.off++
	return b, nil
}

// ReadBool reads a Java boolean.
func (i *DataInput) ReadBool() (bool, error) {
	b, err := i.ReadByte()
	return b != 0, err
}

// ReadUint16 reads a big-endian 16-bit value.
func (i *DataInput) ReadUint16() (uint16, error) {
	if err := i.need(2); err != nil {
		return 0, err
	}
	v := uint16(i.buf[i.off])<<8 | uint16(i.buf[i.off+1])
	i.off += 2
	return v, nil
}

// ReadInt32 reads a big-endian 32-bit value.
func (i *DataInput) ReadInt32() (int32, error) {
	if err := i.need(4); err != nil {
		return 0, err
	}
	b := i.buf[i.off:]
	v := int32(b[0])<<24 | int32(b[1])<<16 | int32(b[2])<<8 | int32(b[3])
	i.off += 4
	return v, nil
}

// ReadInt64 reads a big-endian 64-bit value.
func (i *DataInput) ReadInt64() (int64, error) {
	if err := i.need(8); err != nil {
		return 0, err
	}
	b := i.buf[i.off:]
	v := int64(b[0])<<56 | int64(b[1])<<48 | int64(b[2])<<40 | int64(b[3])<<32 |
		int64(b[4])<<24 | int64(b[5])<<16 | int64(b[6])<<8 | int64(b[7])
	i.off += 8
	return v, nil
}

// ReadFloat32 reads IEEE-754 bits big-endian.
func (i *DataInput) ReadFloat32() (float32, error) {
	v, err := i.ReadInt32()
	return math.Float32frombits(uint32(v)), err
}

// ReadFloat64 reads IEEE-754 bits big-endian.
func (i *DataInput) ReadFloat64() (float64, error) {
	v, err := i.ReadInt64()
	return math.Float64frombits(uint64(v)), err
}

// ReadFull reads exactly n bytes (a view into the buffer, not a copy).
func (i *DataInput) ReadFull(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("writable: negative length %d", n)
	}
	if err := i.need(n); err != nil {
		return nil, err
	}
	b := i.buf[i.off : i.off+n]
	i.off += n
	return b, nil
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
