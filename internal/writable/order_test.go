package writable

import (
	"cmp"
	"testing"
)

// keyOrderKeys builds serialized keys of type name from fuzzed values: the
// canonical encodings of x and y (or of a and b as payloads), and for the
// vlong types also a and b as raw bytes wherever ReadVLong consumes them
// exactly, so non-canonical encodings such as 8f05 for 5 are keys too.
func keyOrderKeys(t *testing.T, name string, a, b []byte, x, y int64) [][]byte {
	rawVLongs := func(keys ...[]byte) [][]byte {
		for _, raw := range [][]byte{a, b} {
			in := NewDataInput(raw)
			if _, err := in.ReadVLong(); err == nil && in.Remaining() == 0 {
				keys = append(keys, raw)
			}
		}
		return keys
	}
	switch name {
	case "NullWritable":
		return [][]byte{Marshal(NullWritable{}), Marshal(NullWritable{})}
	case "BooleanWritable":
		return [][]byte{Marshal(&BooleanWritable{x&1 == 1}), Marshal(&BooleanWritable{y&1 == 1})}
	case "IntWritable":
		return [][]byte{Marshal(&IntWritable{int32(x)}), Marshal(&IntWritable{int32(y)})}
	case "LongWritable":
		return [][]byte{Marshal(&LongWritable{x}), Marshal(&LongWritable{y})}
	case "VIntWritable":
		return rawVLongs(Marshal(&VIntWritable{int32(x)}), Marshal(&VIntWritable{int32(y)}))
	case "VLongWritable":
		return rawVLongs(Marshal(&VLongWritable{x}), Marshal(&VLongWritable{y}))
	case "BytesWritable":
		return [][]byte{Marshal(&BytesWritable{Data: a}), Marshal(&BytesWritable{Data: b})}
	case "Text":
		return [][]byte{Marshal(&Text{Data: a}), Marshal(&Text{Data: b})}
	}
	t.Fatalf("Order accepts %s, but FuzzKeyOrder builds no keys for it", name)
	return nil
}

// FuzzKeyOrder is the one oracle for writable.KeyOrder: for every type Order
// accepts and every pair of fuzzed keys, the prefix never contradicts the
// comparator (a smaller prefix is a smaller key, and equal keys have equal
// prefixes), Compare agrees in sign with the comparator, Same holds exactly
// when the comparator says equal, and the comparator agrees with CompareTo
// on the decoded values.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte{0x05}, []byte{0x8f, 0x05}, int64(5), int64(5))
	f.Add([]byte("tie8key-a"), []byte("tie8key-b"), int64(-1), int64(1))
	f.Add([]byte("same-eight"), []byte("same-eigh"), int64(-1<<31), int64(1<<31-1))
	f.Add([]byte{}, []byte{0}, int64(-1<<63), int64(0))
	f.Fuzz(func(t *testing.T, a, b []byte, x, y int64) {
		for _, name := range Names() {
			o, err := Order(name)
			if err != nil {
				continue // not a key type
			}
			keys := keyOrderKeys(t, name, a, b, x, y)
			for _, ka := range keys {
				for _, kb := range keys {
					checkKeyOrder(t, name, o, ka, kb)
				}
			}
		}
	})
}

func checkKeyOrder(t *testing.T, name string, o KeyOrder, a, b []byte) {
	pa, pb := o.Prefix(a), o.Prefix(b)
	c := o.Cmp(a, b)
	switch {
	case pa < pb && c >= 0, pa > pb && c <= 0:
		t.Fatalf("%s %x vs %x: prefixes %#x vs %#x, but Cmp = %d", name, a, b, pa, pb, c)
	case c == 0 && pa != pb:
		t.Fatalf("%s %x vs %x: equal keys with prefixes %#x vs %#x", name, a, b, pa, pb)
	}
	if got := o.Compare(a, pa, b, pb); cmp.Compare(got, 0) != cmp.Compare(c, 0) {
		t.Fatalf("%s %x vs %x: Compare = %d, Cmp = %d", name, a, b, got, c)
	}
	if same := o.Same(a, pa, b, pb); same != (c == 0) {
		t.Fatalf("%s %x vs %x: Same = %v, Cmp = %d", name, a, b, same, c)
	}
	va, _ := New(name)
	vb, _ := New(name)
	if Unmarshal(a, va) != nil || Unmarshal(b, vb) != nil {
		return // not a value of the type (a vint out of range, a non-UTF-8 Text)
	}
	if want := va.(Comparable).CompareTo(vb.(Comparable)); cmp.Compare(want, 0) != cmp.Compare(c, 0) {
		t.Fatalf("%s %x vs %x: Cmp = %d, CompareTo = %d", name, a, b, c, want)
	}
}

func TestOrderAndByComparator(t *testing.T) {
	if _, err := Order("DoubleWritable"); err == nil {
		t.Error("Order accepted DoubleWritable, which has no raw comparator")
	}
	o := ByComparator(CompareText)
	a, b := Marshal(NewText("b")), Marshal(NewText("a"))
	if pa, pb := o.Prefix(a), o.Prefix(b); pa != 0 || pb != 0 || o.Compare(a, pa, b, pb) <= 0 {
		t.Errorf("ByComparator: prefixes %#x %#x, Compare %d; want 0, 0 and the comparator's order", pa, pb, o.Compare(a, pa, b, pb))
	}
	// Order must hand back the registered extractor, not the zero prefix of
	// ByComparator: FuzzKeyOrder would pass either way.
	for _, name := range Names() {
		want, ok := PrefixExtractor(name)
		if !ok {
			continue
		}
		o, err := Order(name)
		if err != nil {
			t.Errorf("Order(%s): %v, but it has a prefix extractor", name, err)
			continue
		}
		nonzero := false
		for _, k := range keyOrderKeys(t, name, []byte("prefix-a"), []byte{0x8f, 0x05}, 300, -7) {
			if got, w := o.Prefix(k), want(k); got != w {
				t.Errorf("Order(%s).Prefix(%x) = %#x, extractor gives %#x", name, k, got, w)
			}
			nonzero = nonzero || want(k) != 0
		}
		if !nonzero && name != "NullWritable" {
			t.Errorf("%s: every test key has prefix 0; the check above proves nothing", name)
		}
	}
	// One vlong value, two encodings: Same must fall back to the comparator.
	vl, _ := Order("VLongWritable")
	short, long := []byte{0x05}, []byte{0x8f, 0x05}
	if !vl.Same(short, vl.Prefix(short), long, vl.Prefix(long)) {
		t.Error("VLong 05 and 8f05 decode to 5, but Same says they differ")
	}
}
