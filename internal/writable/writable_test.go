package writable

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, w Writable, fresh Writable) {
	t.Helper()
	buf := Marshal(w)
	if err := Unmarshal(buf, fresh); err != nil {
		t.Fatalf("unmarshal %T: %v", w, err)
	}
}

func TestLongWritableRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		out := new(LongWritable)
		roundTrip(t, &LongWritable{Value: v}, out)
		return out.Value == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVLongRoundTrip(t *testing.T) {
	roundTrip := func(v int64) bool {
		o := NewDataOutput(9)
		o.WriteVLong(v)
		in := NewDataInput(o.Bytes())
		got, err := in.ReadVLong()
		return err == nil && got == v && in.Remaining() == 0
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Boundary cases of the Hadoop format.
	for _, v := range []int64{0, 127, 128, -112, -113, 255, 256, -1, math.MaxInt64, math.MinInt64} {
		if !roundTrip(v) {
			t.Errorf("vlong %d did not round-trip", v)
		}
	}
}

func TestVLongKnownEncodings(t *testing.T) {
	// Byte-exact vectors from Hadoop WritableUtils.
	cases := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0}},
		{127, []byte{127}},
		{-112, []byte{0x90}},       // single byte -112
		{128, []byte{0x8f, 0x80}},  // -113 prefix, one magnitude byte
		{-113, []byte{0x87, 0x70}}, // -121 prefix, ~v = 112
		{255, []byte{0x8f, 0xff}},
		{256, []byte{0x8e, 0x01, 0x00}}, // -114 prefix, two bytes
		{-256, []byte{0x87, 0xff}},      // -121 prefix, ~v = 255
	}
	for _, c := range cases {
		o := NewDataOutput(4)
		o.WriteVLong(c.v)
		if !bytes.Equal(o.Bytes(), c.want) {
			t.Errorf("WriteVLong(%d) = %x, want %x", c.v, o.Bytes(), c.want)
		}
		if got := VLongEncodedLen(c.v); got != len(c.want) {
			t.Errorf("VLongEncodedLen(%d) = %d, want %d", c.v, got, len(c.want))
		}
	}
}

func TestVIntSizeMatchesEncoding(t *testing.T) {
	f := func(v int64) bool {
		o := NewDataOutput(10)
		o.WriteVLong(v)
		enc := o.Bytes()
		return VIntSize(enc[0]) == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOneByteVIntMatchesReadVLong: for every first byte, OneByteVInt takes
// exactly the one-byte encodings and decodes them as the general decoder
// does.
func TestOneByteVIntMatchesReadVLong(t *testing.T) {
	if _, ok := OneByteVInt(nil); ok {
		t.Error("OneByteVInt decoded an empty input")
	}
	for b := range 256 {
		enc := []byte{byte(b), 0, 0, 0, 0, 0, 0, 0, 0}
		v, ok := OneByteVInt(enc)
		want, err := NewDataInput(enc).readVLongSlow()
		if ok != (VIntSize(byte(b)) == 1) || err != nil || ok && int64(v) != want {
			t.Errorf("first byte %#02x: OneByteVInt (%d, %v), general decoder (%d, %v)", b, v, ok, want, err)
		}
	}
}

// TestTextLengthEncodings: Text reads the same whether its length is one
// vint byte or several, and every truncation of either errors.
func TestTextLengthEncodings(t *testing.T) {
	for _, n := range []int{0, 1, 111, 112, 127, 128, 300} {
		enc := Marshal(&Text{Data: bytes.Repeat([]byte("t"), n)})
		out := &Text{Data: []byte("stale")}
		if in := NewDataInput(enc); out.ReadFields(in) != nil || len(out.Data) != n || in.Remaining() != 0 {
			t.Errorf("%d-byte Text: read %d bytes, %d left over", n, len(out.Data), in.Remaining())
		}
		for cut := range len(enc) {
			if err := new(Text).ReadFields(NewDataInput(enc[:cut])); err == nil {
				t.Errorf("%d-byte Text cut to %d bytes: no error", n, cut)
			}
		}
	}
}

func TestBytesWritableRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		out := new(BytesWritable)
		roundTrip(t, &BytesWritable{Data: data}, out)
		return bytes.Equal(out.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesWritableWireFormat(t *testing.T) {
	buf := Marshal(&BytesWritable{Data: []byte{0xAA, 0xBB}})
	want := []byte{0, 0, 0, 2, 0xAA, 0xBB}
	if !bytes.Equal(buf, want) {
		t.Errorf("wire = %x, want %x", buf, want)
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, s := range []string{"", "hello", "日本語", "a\x00b", "mixed 日本 ascii"} {
		out := new(Text)
		roundTrip(t, NewText(s), out)
		if out.String() != s {
			t.Errorf("text %q round-tripped to %q", s, out.String())
		}
	}
}

func TestTextRejectsInvalidUTF8(t *testing.T) {
	o := NewDataOutput(8)
	o.WriteVInt(2)
	o.Write([]byte{0xff, 0xfe})
	if err := new(Text).ReadFields(NewDataInput(o.Bytes())); err == nil {
		t.Error("expected invalid-UTF-8 error")
	}
}

func TestTruncatedInputs(t *testing.T) {
	full := Marshal(&LongWritable{Value: 123456789})
	for n := 0; n < len(full); n++ {
		if err := new(LongWritable).ReadFields(NewDataInput(full[:n])); err == nil {
			t.Errorf("no error for %d-byte prefix", n)
		}
	}
	bw := Marshal(&BytesWritable{Data: make([]byte, 10)})
	if err := new(BytesWritable).ReadFields(NewDataInput(bw[:7])); err == nil {
		t.Error("no error for truncated BytesWritable payload")
	}
}

func TestNegativeLengthRejected(t *testing.T) {
	o := NewDataOutput(4)
	o.WriteInt32(-5)
	if err := new(BytesWritable).ReadFields(NewDataInput(o.Bytes())); err == nil {
		t.Error("negative BytesWritable length accepted")
	}
	o2 := NewDataOutput(4)
	o2.WriteVInt(-3)
	if err := new(Text).ReadFields(NewDataInput(o2.Bytes())); err == nil {
		t.Error("negative Text length accepted")
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	buf := append(Marshal(&LongWritable{Value: 1}), 0xFF)
	if err := Unmarshal(buf, new(LongWritable)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Raw comparators must agree with the order of the values they encode.
func TestRawComparatorConsistency(t *testing.T) {
	t.Run("LongWritable", func(t *testing.T) {
		f := func(a, b int64) bool {
			got := CompareInt64BE(Marshal(&LongWritable{Value: a}), Marshal(&LongWritable{Value: b}))
			return sign(got) == cmp.Compare(a, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("BytesWritable", func(t *testing.T) {
		f := func(a, b []byte) bool {
			got := CompareBytesWritable(Marshal(&BytesWritable{Data: a}), Marshal(&BytesWritable{Data: b}))
			return sign(got) == bytes.Compare(a, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("Text", func(t *testing.T) {
		f := func(a, b string) bool {
			got := CompareText(Marshal(NewText(a)), Marshal(NewText(b)))
			return sign(got) == strings.Compare(a, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestRegistry(t *testing.T) {
	w, err := New("BytesWritable")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(*BytesWritable); !ok {
		t.Errorf("New(BytesWritable) = %T", w)
	}
	if _, err := New("NoSuchType"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Comparator("Text"); err != nil {
		t.Errorf("Text comparator missing: %v", err)
	}
	if _, err := Comparator("IntWritable"); err == nil {
		t.Error("IntWritable is not registered, but Comparator accepted it")
	}
	// The types a job can name: the paper's two intermediate data types,
	// LongWritable and NullWritable.
	if names := fmt.Sprint(Names()); names != "[BytesWritable LongWritable NullWritable Text]" {
		t.Errorf("registered types = %s", names)
	}
}

func TestNullWritable(t *testing.T) {
	if len(Marshal(NullWritable{})) != 0 {
		t.Error("NullWritable must serialize to zero bytes")
	}
	if raw, _ := Comparator("NullWritable"); raw(nil, nil) != 0 {
		t.Error("NullWritable compare != 0")
	}
}

func TestDataOutputPrimitives(t *testing.T) {
	o := NewDataOutput(16)
	o.WriteInt32(-0x1234567)
	o.WriteU8(0xEF)
	in := NewDataInput(o.Bytes())
	if v, _ := in.ReadInt32(); v != -0x1234567 {
		t.Errorf("int32 = %x", v)
	}
	if v, _ := in.ReadByte(); v != 0xEF {
		t.Errorf("byte = %x", v)
	}
	o.Reset()
	if o.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func BenchmarkMarshalBytesWritable1K(b *testing.B) {
	w := &BytesWritable{Data: make([]byte, 1024)}
	o := NewDataOutput(2048)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		o.Reset()
		w.Write(o)
	}
}

func BenchmarkCompareText(b *testing.B) {
	x := Marshal(NewText("benchmark key alpha"))
	y := Marshal(NewText("benchmark key beta"))
	for i := 0; i < b.N; i++ {
		_ = CompareText(x, y)
	}
}

// TestViewModeAliasesCapped: in view mode BytesWritable and Text decode to
// a view of the input capped at its length — an append reallocates instead
// of writing over the input — and reject what copy mode rejects.
func TestViewModeAliasesCapped(t *testing.T) {
	for _, tc := range []struct {
		w     Writable
		fresh func() Writable
	}{
		{&BytesWritable{Data: []byte("payload")}, func() Writable { return new(BytesWritable) }},
		{NewText("payload"), func() Writable { return new(Text) }},
	} {
		w := tc.w
		enc := append(Marshal(w), "next"...)
		buf := enc[:len(enc)-4]
		var in DataInput
		in.SetView(true)
		fresh := tc.fresh()
		if err := in.Unmarshal(buf, fresh); err != nil {
			t.Fatalf("%T: %v", w, err)
		}
		data := payload(fresh)
		if string(data) != "payload" || &data[0] != &buf[len(buf)-len(data)] || cap(data) != len(data) {
			t.Fatalf("%T: view %q (cap %d) is not a capped view of the input", w, data, cap(data))
		}
		_ = append(data, "XXXX"...)
		if string(enc[len(enc)-4:]) != "next" {
			t.Fatalf("%T: appending to a view wrote over the input after it", w)
		}
		in.SetView(false)
		copied := tc.fresh()
		if err := in.Unmarshal(buf, copied); err != nil || &payload(copied)[0] == &buf[len(buf)-len(data)] {
			t.Fatalf("%T: copy mode err %v or aliased the input", w, err)
		}
	}
	var in DataInput
	in.SetView(true)
	if err := in.Unmarshal(append(Marshal(NewText("ok")), 0), new(Text)); err == nil {
		t.Error("view mode accepted a trailing byte")
	}
	if err := in.Unmarshal([]byte{2, 0xff, 0xfe}, new(Text)); err == nil {
		t.Error("view mode accepted invalid UTF-8")
	}
	if err := in.Unmarshal([]byte{0, 0, 0, 9, 1}, new(BytesWritable)); err == nil {
		t.Error("view mode accepted a BytesWritable longer than its input")
	}
}

func payload(w Writable) []byte {
	switch v := w.(type) {
	case *BytesWritable:
		return v.Data
	case *Text:
		return v.Data
	}
	return nil
}
