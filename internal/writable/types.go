package writable

import (
	"bytes"
	"fmt"
	"unicode/utf8"
)

// Writable is the Hadoop serialization contract: a value that can marshal
// itself to a DataOutput and re-read itself from a DataInput.
type Writable interface {
	// Write serializes the value.
	Write(o *DataOutput)
	// ReadFields replaces the value's contents from serialized form.
	ReadFields(i *DataInput) error
}

// Comparable is a Writable with a total order, Hadoop's WritableComparable.
type Comparable interface {
	Writable
	// CompareTo orders this value against another of the same type.
	CompareTo(other Comparable) int
}

// NullWritable is the zero-byte placeholder type.
type NullWritable struct{}

// Write writes nothing; NullWritable has no wire form.
func (NullWritable) Write(*DataOutput) {}

// ReadFields reads nothing.
func (NullWritable) ReadFields(*DataInput) error { return nil }

// CompareTo reports equality with any other NullWritable.
func (NullWritable) CompareTo(Comparable) int { return 0 }

// String implements fmt.Stringer like Hadoop's "(null)".
func (NullWritable) String() string { return "(null)" }

// IntWritable boxes an int32 (4 bytes big-endian on the wire).
type IntWritable struct{ Value int32 }

func (w *IntWritable) Write(o *DataOutput) { o.WriteInt32(w.Value) }
func (w *IntWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadInt32()
	w.Value = v
	return err
}
func (w *IntWritable) CompareTo(other Comparable) int {
	return compareInt64(int64(w.Value), int64(other.(*IntWritable).Value))
}
func (w *IntWritable) String() string { return fmt.Sprint(w.Value) }

// LongWritable boxes an int64 (8 bytes big-endian).
type LongWritable struct{ Value int64 }

func (w *LongWritable) Write(o *DataOutput) { o.WriteInt64(w.Value) }
func (w *LongWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadInt64()
	w.Value = v
	return err
}
func (w *LongWritable) CompareTo(other Comparable) int {
	return compareInt64(w.Value, other.(*LongWritable).Value)
}
func (w *LongWritable) String() string { return fmt.Sprint(w.Value) }

// VIntWritable boxes an int32 in Hadoop variable-length encoding.
type VIntWritable struct{ Value int32 }

func (w *VIntWritable) Write(o *DataOutput) { o.WriteVInt(w.Value) }
func (w *VIntWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadVInt()
	w.Value = v
	return err
}
func (w *VIntWritable) CompareTo(other Comparable) int {
	return compareInt64(int64(w.Value), int64(other.(*VIntWritable).Value))
}
func (w *VIntWritable) String() string { return fmt.Sprint(w.Value) }

// VLongWritable boxes an int64 in Hadoop variable-length encoding.
type VLongWritable struct{ Value int64 }

func (w *VLongWritable) Write(o *DataOutput) { o.WriteVLong(w.Value) }
func (w *VLongWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadVLong()
	w.Value = v
	return err
}
func (w *VLongWritable) CompareTo(other Comparable) int {
	return compareInt64(w.Value, other.(*VLongWritable).Value)
}
func (w *VLongWritable) String() string { return fmt.Sprint(w.Value) }

// BooleanWritable boxes a bool (1 byte).
type BooleanWritable struct{ Value bool }

func (w *BooleanWritable) Write(o *DataOutput) { o.WriteBool(w.Value) }
func (w *BooleanWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadBool()
	w.Value = v
	return err
}
func (w *BooleanWritable) CompareTo(other Comparable) int {
	a, b := w.Value, other.(*BooleanWritable).Value
	switch {
	case a == b:
		return 0
	case b: // false < true
		return -1
	default:
		return 1
	}
}
func (w *BooleanWritable) String() string { return fmt.Sprint(w.Value) }

// FloatWritable boxes a float32 (IEEE bits big-endian).
type FloatWritable struct{ Value float32 }

func (w *FloatWritable) Write(o *DataOutput) { o.WriteFloat32(w.Value) }
func (w *FloatWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadFloat32()
	w.Value = v
	return err
}
func (w *FloatWritable) CompareTo(other Comparable) int {
	a, b := w.Value, other.(*FloatWritable).Value
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
func (w *FloatWritable) String() string { return fmt.Sprint(w.Value) }

// DoubleWritable boxes a float64.
type DoubleWritable struct{ Value float64 }

func (w *DoubleWritable) Write(o *DataOutput) { o.WriteFloat64(w.Value) }
func (w *DoubleWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadFloat64()
	w.Value = v
	return err
}
func (w *DoubleWritable) CompareTo(other Comparable) int {
	a, b := w.Value, other.(*DoubleWritable).Value
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
func (w *DoubleWritable) String() string { return fmt.Sprint(w.Value) }

// BytesWritable is an opaque byte sequence: 4-byte big-endian length + data,
// the paper's default intermediate data type.
type BytesWritable struct{ Data []byte }

func (w *BytesWritable) Write(o *DataOutput) {
	o.WriteInt32(int32(len(w.Data)))
	o.Write(w.Data)
}

func (w *BytesWritable) ReadFields(i *DataInput) error {
	n, err := i.ReadInt32()
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("writable: negative BytesWritable length %d", n)
	}
	b, err := i.ReadFull(int(n))
	if err != nil {
		return err
	}
	w.Data = i.keep(w.Data, b)
	return nil
}

func (w *BytesWritable) CompareTo(other Comparable) int {
	return bytes.Compare(w.Data, other.(*BytesWritable).Data)
}

func (w *BytesWritable) String() string { return fmt.Sprintf("%x", w.Data) }

// Text is a UTF-8 string: vint length + bytes.
type Text struct{ Data []byte }

// NewText builds a Text from a Go string.
func NewText(s string) *Text { return &Text{Data: []byte(s)} }

func (w *Text) Write(o *DataOutput) {
	o.WriteVInt(int32(len(w.Data)))
	o.Write(w.Data)
}

func (w *Text) ReadFields(i *DataInput) error {
	n, ok := OneByteVInt(i.buf[i.off:]) // the length of any Text under 128 bytes
	if ok {
		i.off++
	} else if n32, err := i.ReadVInt(); err != nil {
		return err
	} else {
		n = int(n32)
	}
	if n < 0 {
		return fmt.Errorf("writable: negative Text length %d", n)
	}
	b, err := i.ReadFull(n)
	if err != nil {
		return err
	}
	if !utf8.Valid(b) {
		return fmt.Errorf("writable: Text payload is not valid UTF-8")
	}
	w.Data = i.keep(w.Data, b)
	return nil
}

func (w *Text) CompareTo(other Comparable) int {
	return bytes.Compare(w.Data, other.(*Text).Data)
}

func (w *Text) String() string { return string(w.Data) }

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Marshal serializes w to a fresh byte slice.
func Marshal(w Writable) []byte {
	o := NewDataOutput(16)
	w.Write(o)
	return o.Bytes()
}

// Unmarshal deserializes buf into w, requiring full consumption.
func Unmarshal(buf []byte, w Writable) error { return new(DataInput).Unmarshal(buf, w) }

// Unmarshal is the package-level Unmarshal through a caller-owned input: it
// rewinds i onto buf first, so a loop that keeps one DataInput decodes
// record after record without allocating.
func (i *DataInput) Unmarshal(buf []byte, w Writable) error {
	i.buf, i.off = buf, 0
	if err := w.ReadFields(i); err != nil {
		return err
	}
	if i.Remaining() != 0 {
		return fmt.Errorf("writable: %d trailing bytes after %T", i.Remaining(), w)
	}
	return nil
}
