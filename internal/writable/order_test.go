package writable

import (
	"bytes"
	"cmp"
	"testing"
)

// keyOrderKeys builds serialized keys of type name from fuzzed values: the
// canonical encodings of x and y (or of a and b as payloads), and for Text
// also a and b behind the two-byte length header 8f<n>, and a and b as raw
// bytes wherever their vint header states exactly the bytes that follow, so
// non-canonical encodings such as 8f05 before a 5-byte payload are keys too.
func keyOrderKeys(t *testing.T, name string, a, b []byte, x, y int64) [][]byte {
	switch name {
	case "NullWritable":
		return [][]byte{Marshal(NullWritable{}), Marshal(NullWritable{})}
	case "LongWritable":
		return [][]byte{Marshal(&LongWritable{x}), Marshal(&LongWritable{y})}
	case "BytesWritable":
		return [][]byte{Marshal(&BytesWritable{Data: a}), Marshal(&BytesWritable{Data: b})}
	case "Text":
		keys := [][]byte{Marshal(&Text{Data: a}), Marshal(&Text{Data: b})}
		for _, p := range [][]byte{a, b} {
			if len(p) <= 0xff {
				keys = append(keys, append([]byte{0x8f, byte(len(p))}, p...))
			}
		}
		for _, raw := range [][]byte{a, b} {
			in := NewDataInput(raw)
			if n, err := in.ReadVInt(); err == nil && int(n) == in.Remaining() {
				keys = append(keys, raw)
			}
		}
		return keys
	}
	t.Fatalf("Order accepts %s, but FuzzKeyOrder builds no keys for it", name)
	return nil
}

// valueOrder orders two decoded values of one registered type.
func valueOrder(a, b Writable) int {
	switch a := a.(type) {
	case *LongWritable:
		return cmp.Compare(a.Value, b.(*LongWritable).Value)
	case *BytesWritable:
		return bytes.Compare(a.Data, b.(*BytesWritable).Data)
	case *Text:
		return bytes.Compare(a.Data, b.(*Text).Data)
	}
	return 0 // NullWritable
}

// FuzzKeyOrder is the one oracle for writable.KeyOrder: for every type Order
// accepts and every pair of fuzzed keys, the prefix never contradicts the
// comparator (a smaller prefix is a smaller key, and equal keys have equal
// prefixes), Compare agrees in sign with the comparator, Same holds exactly
// when the comparator says equal, and the comparator agrees with the order
// of the decoded values.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte("\x05hello"), []byte("\x8f\x05hello"), int64(5), int64(5))
	f.Add([]byte("tie8key-a"), []byte("tie8key-b"), int64(-1), int64(1))
	f.Add([]byte("same-eight"), []byte("same-eigh"), int64(-1<<31), int64(1<<31-1))
	f.Add([]byte{}, []byte{0}, int64(-1<<63), int64(0))
	f.Fuzz(func(t *testing.T, a, b []byte, x, y int64) {
		for _, name := range Names() {
			o, err := Order(name)
			if err != nil {
				t.Fatalf("Order(%s): %v", name, err)
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
	if want := valueOrder(va, vb); cmp.Compare(want, 0) != cmp.Compare(c, 0) {
		t.Fatalf("%s %x vs %x: Cmp = %d, decoded values order %d", name, a, b, c, want)
	}
}

func TestOrderAndByComparator(t *testing.T) {
	if _, err := Order("IntWritable"); err == nil {
		t.Error("Order accepted IntWritable, which is not registered")
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
	// One Text, two length encodings: Same must fall back to the comparator.
	text, _ := Order("Text")
	short, long := []byte("\x05hello"), []byte("\x8f\x05hello")
	if !text.Same(short, text.Prefix(short), long, text.Prefix(long)) {
		t.Error("Texts 05hello and 8f05hello both decode to hello, but Same says they differ")
	}
}
