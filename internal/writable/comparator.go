package writable

import (
	"bytes"
	"fmt"
	"sort"
)

// RawComparator orders values by their serialized form without
// deserializing, as Hadoop's sort and merge phases do. Both arguments are
// complete encodings of the same Writable type.
type RawComparator func(a, b []byte) int

// Factory constructs a fresh zero value of a registered type.
type Factory func() Writable

type registration struct {
	name    string
	factory Factory
	raw     RawComparator
}

var registry = map[string]registration{}

// Register adds a named Writable type with its raw comparator (nil for
// non-comparable types). Names follow Hadoop's simple class names.
func Register(name string, f Factory, raw RawComparator) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("writable: duplicate registration of %q", name))
	}
	registry[name] = registration{name: name, factory: f, raw: raw}
}

// New instantiates a registered type by name.
func New(name string) (Writable, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("writable: unknown type %q (registered: %v)", name, Names())
	}
	return r.factory(), nil
}

// Comparator returns the raw comparator for a registered type.
func Comparator(name string) (RawComparator, error) {
	r, ok := registry[name]
	if !ok || r.raw == nil {
		return nil, fmt.Errorf("writable: no raw comparator for %q", name)
	}
	return r.raw, nil
}

// Names lists registered type names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// KeyOrder is a key type's order over serialized keys: unequal Prefix values
// decide, and Cmp decides a tie. Callers take each key's prefix once and pass
// it back with the key, so most decisions never touch key bytes. Prefix is
// never nil. Compare and Same are the one place the two combine.
type KeyOrder struct {
	Prefix PrefixFunc
	Cmp    RawComparator
}

// Order returns a comparable registered type's prefix extractor and raw
// comparator; a type with no extractor gets ByComparator's order.
func Order(name string) (KeyOrder, error) {
	raw, err := Comparator(name)
	o := ByComparator(raw)
	if p, ok := prefixExtractors[name]; ok {
		o.Prefix = p
	}
	return o, err
}

// ByComparator orders by raw alone: every prefix is 0.
func ByComparator(raw RawComparator) KeyOrder {
	return KeyOrder{Prefix: func([]byte) uint64 { return 0 }, Cmp: raw}
}

// Compare orders key a (prefix pa) against key b (prefix pb): unequal
// prefixes decide, and Cmp decides a tie. Its shape keeps it inlinable
// (cost 79 of 80) and makes the sign of unequal prefixes a conditional move:
// as a branch, half of a merge's decisions would be mispredicted.
func (o KeyOrder) Compare(a []byte, pa uint64, b []byte, pb uint64) (c int) {
	if c = 1; pa < pb {
		c = -1
	}
	if pa == pb {
		c = o.Cmp(a, b)
	}
	return
}

// Same reports whether a and b are one key: equal prefixes, then equal bytes
// or Cmp == 0, as for the vlongs 05 and 8f05, two encodings of 5.
func (o KeyOrder) Same(a []byte, pa uint64, b []byte, pb uint64) bool {
	return pa == pb && (bytes.Equal(a, b) || o.Cmp(a, b) == 0)
}

// CompareBytesWritable orders BytesWritable encodings: skip the 4-byte
// length header and compare payloads lexicographically (byte-length order is
// implied by bytes.Compare on the payloads, matching Hadoop's
// compareBytes).
func CompareBytesWritable(a, b []byte) int {
	return bytes.Compare(a[4:], b[4:])
}

// CompareText orders Text encodings: skip the vint length header and
// compare the UTF-8 payloads bytewise (Hadoop's Text.Comparator).
func CompareText(a, b []byte) int {
	return bytes.Compare(a[VIntSize(a[0]):], b[VIntSize(b[0]):])
}

// CompareInt32BE orders 4-byte big-endian signed ints in serialized form.
func CompareInt32BE(a, b []byte) int {
	// Flip the sign bit so unsigned byte comparison yields signed order.
	x := [4]byte{a[0] ^ 0x80, a[1], a[2], a[3]}
	y := [4]byte{b[0] ^ 0x80, b[1], b[2], b[3]}
	return bytes.Compare(x[:], y[:])
}

// CompareInt64BE orders 8-byte big-endian signed longs in serialized form.
func CompareInt64BE(a, b []byte) int {
	x := [8]byte{a[0] ^ 0x80, a[1], a[2], a[3], a[4], a[5], a[6], a[7]}
	y := [8]byte{b[0] ^ 0x80, b[1], b[2], b[3], b[4], b[5], b[6], b[7]}
	return bytes.Compare(x[:], y[:])
}

// CompareVLong orders Hadoop vlong encodings by decoded value.
func CompareVLong(a, b []byte) int {
	av, _ := NewDataInput(a).ReadVLong()
	bv, _ := NewDataInput(b).ReadVLong()
	return compareInt64(av, bv)
}

func init() {
	Register("NullWritable", func() Writable { return NullWritable{} }, func(a, b []byte) int { return 0 })
	Register("IntWritable", func() Writable { return new(IntWritable) }, CompareInt32BE)
	Register("LongWritable", func() Writable { return new(LongWritable) }, CompareInt64BE)
	Register("VIntWritable", func() Writable { return new(VIntWritable) }, CompareVLong)
	Register("VLongWritable", func() Writable { return new(VLongWritable) }, CompareVLong)
	Register("BooleanWritable", func() Writable { return new(BooleanWritable) }, func(a, b []byte) int {
		return int(a[0]) - int(b[0])
	})
	Register("FloatWritable", func() Writable { return new(FloatWritable) }, nil)
	Register("DoubleWritable", func() Writable { return new(DoubleWritable) }, nil)
	Register("BytesWritable", func() Writable { return new(BytesWritable) }, CompareBytesWritable)
	Register("Text", func() Writable { return new(Text) }, CompareText)
}
