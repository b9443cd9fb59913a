package writable

import (
	"strconv"
	"testing"
	"testing/quick"
)

// Decoders must reject arbitrary garbage with an error — never panic, never
// over-read. This guards the shuffle path, which deserializes bytes that
// crossed a network.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	decoders := map[string]func() Writable{
		"LongWritable":  func() Writable { return new(LongWritable) },
		"BytesWritable": func() Writable { return new(BytesWritable) },
		"Text":          func() Writable { return new(Text) },
	}
	for name, mk := range decoders {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(garbage []byte) (ok bool) {
				defer func() {
					if recover() != nil {
						ok = false
					}
				}()
				w := mk()
				_ = w.ReadFields(NewDataInput(garbage)) // error or success, no panic
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// A decoder must never report success while leaving the input pointer past
// the end (ReadFull/need guard this; the property pins it).
func TestDecodersNeverOverread(t *testing.T) {
	f := func(garbage []byte) bool {
		in := NewDataInput(garbage)
		w := new(BytesWritable)
		if err := w.ReadFields(in); err == nil {
			return in.Offset() <= len(garbage) && len(w.Data) <= len(garbage)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Round-trip stability: marshal(unmarshal(marshal(x))) == marshal(x).
func TestMarshalIdempotent(t *testing.T) {
	f := func(data []byte, v int64) bool {
		for _, w := range []Writable{
			&BytesWritable{Data: data},
			&LongWritable{Value: v},
			&Text{Data: []byte(strconv.FormatInt(v, 10))},
		} {
			once := Marshal(w)
			fresh, _ := New(typeName(w))
			if Unmarshal(once, fresh) != nil {
				return false
			}
			twice := Marshal(fresh)
			if string(once) != string(twice) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func typeName(w Writable) string {
	switch w.(type) {
	case *BytesWritable:
		return "BytesWritable"
	case *LongWritable:
		return "LongWritable"
	case *Text:
		return "Text"
	default:
		return ""
	}
}
