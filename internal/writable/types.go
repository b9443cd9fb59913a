package writable

import (
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

// NullWritable is the zero-byte placeholder type.
type NullWritable struct{}

// Write writes nothing; NullWritable has no wire form.
func (NullWritable) Write(*DataOutput) {}

// ReadFields reads nothing.
func (NullWritable) ReadFields(*DataInput) error { return nil }

// String implements fmt.Stringer like Hadoop's "(null)".
func (NullWritable) String() string { return "(null)" }

// LongWritable boxes an int64 (8 bytes big-endian).
type LongWritable struct{ Value int64 }

func (w *LongWritable) Write(o *DataOutput) { o.WriteInt64(w.Value) }
func (w *LongWritable) ReadFields(i *DataInput) error {
	v, err := i.ReadInt64()
	w.Value = v
	return err
}
func (w *LongWritable) String() string { return fmt.Sprint(w.Value) }

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

func (w *Text) String() string { return string(w.Data) }

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
