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

// registration is one type a job can name: its constructor, the raw
// comparator of its serialized form and that comparator's prefix extractor.
type registration struct {
	factory Factory
	raw     RawComparator
	prefix  PrefixFunc
}

// registry holds every type a job can name, under Hadoop's simple class
// names: the paper's two intermediate data types, LongWritable (counts and
// offsets) and NullWritable (the record readers' placeholder).
var registry = map[string]registration{
	"BytesWritable": {func() Writable { return new(BytesWritable) }, CompareBytesWritable, bytesWritablePrefix},
	"LongWritable":  {func() Writable { return new(LongWritable) }, CompareInt64BE, longPrefix},
	"NullWritable":  {func() Writable { return NullWritable{} }, func(a, b []byte) int { return 0 }, zeroPrefix},
	"Text":          {func() Writable { return new(Text) }, CompareText, textPrefix},
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
	if !ok {
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

// Order returns a registered type's prefix extractor and raw comparator.
func Order(name string) (KeyOrder, error) {
	r, ok := registry[name]
	if !ok {
		return KeyOrder{}, fmt.Errorf("writable: no raw comparator for %q", name)
	}
	return KeyOrder{Prefix: r.prefix, Cmp: r.raw}, nil
}

// ByComparator orders by raw alone: every prefix is 0.
func ByComparator(raw RawComparator) KeyOrder {
	return KeyOrder{Prefix: zeroPrefix, Cmp: raw}
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
// or Cmp == 0, as for the Texts 05 and 8f05 before the same five bytes, two
// encodings of one string's length.
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

// CompareInt64BE orders 8-byte big-endian signed longs in serialized form.
func CompareInt64BE(a, b []byte) int {
	x := [8]byte{a[0] ^ 0x80, a[1], a[2], a[3], a[4], a[5], a[6], a[7]}
	y := [8]byte{b[0] ^ 0x80, b[1], b[2], b[3], b[4], b[5], b[6], b[7]}
	return bytes.Compare(x[:], y[:])
}
