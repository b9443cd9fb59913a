package hadooprpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime/metrics"
	"testing"
)

// frameSeeds are FuzzFrame's seeds: a valid call, a valid response, a call
// and a response head each declaring a 64 MiB payload and carrying none, and
// a call cut off inside its method name.
func frameSeeds() [][]byte {
	var resp bytes.Buffer
	if err := writeResponse(&resp, 7, 0, []byte("result")); err != nil {
		panic(err)
	}
	bigCall := binary.BigEndian.AppendUint32(appendUTF(binary.BigEndian.AppendUint32(nil, 1), "m"), 64<<20)
	bigResp := binary.BigEndian.AppendUint32([]byte{0, 0, 0, 1, 0}, 64<<20)
	return [][]byte{
		appendCall(nil, 7, "heartbeat", []byte{1, 2, 3}),
		resp.Bytes(),
		bigCall,
		bigResp,
		append(binary.BigEndian.AppendUint32(nil, 1), 0, 10, 'h', 'e'),
	}
}

// FuzzFrame feeds arbitrary bytes to both frame readers. Neither may panic,
// and neither may allocate for a payload that has not arrived: a frame cut
// short costs at most its own length plus 1 MiB of heap, whatever length it
// declares. A frame either reader accepts is framed again to the very bytes
// it consumed; an accepted payload was read in steps and joined, so it may
// cost twice its length.
func FuzzFrame(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// check runs one reader over data. Its reframe result frames what the
		// reader parsed again, outside the measured span. The heap counter is
		// process-wide and the fuzzing engine allocates beside the reader, so
		// the reader's own cost is the least of three identical reads.
		check := func(what string, read func(r io.Reader) (reframe func() []byte, err error)) {
			var spent uint64 = math.MaxUint64
			var reframe func() []byte
			var err error
			r := bytes.NewReader(data)
			for range 3 {
				r.Reset(data)
				before := allocated()
				reframe, err = read(r)
				spent = min(spent, allocated()-before)
			}
			bound := uint64(len(data)) + 1<<20
			if err == nil {
				bound += uint64(len(data))
			}
			if spent > bound {
				t.Fatalf("%s: %d input bytes allocated %d (bound %d, err %v)", what, len(data), spent, bound, err)
			}
			if consumed := data[:len(data)-r.Len()]; err == nil && !bytes.Equal(reframe(), consumed) {
				t.Fatalf("%s: accepted %x, framed again as %x", what, consumed, reframe())
			}
		}
		check("readCall", func(r io.Reader) (func() []byte, error) {
			id, method, params, err := readCall(r)
			return func() []byte { return appendCall(nil, id, method, params) }, err
		})
		check("readResponse", func(r io.Reader) (func() []byte, error) {
			id, status, payload, err := readResponse(r)
			return func() []byte {
				var w bytes.Buffer
				if err := writeResponse(&w, id, status, payload); err != nil {
					t.Fatal(err)
				}
				return w.Bytes()
			}, err
		})
	})
}

// TestFrameSeedVerdicts: the two valid seeds parse as what they are; the
// declared-but-absent payloads and the cut method name are errors.
func TestFrameSeedVerdicts(t *testing.T) {
	seeds := frameSeeds()
	if id, method, params, err := readCall(bytes.NewReader(seeds[0])); err != nil || id != 7 || method != "heartbeat" || !bytes.Equal(params, []byte{1, 2, 3}) {
		t.Errorf("valid call: id %d method %q params %v err %v", id, method, params, err)
	}
	if id, status, payload, err := readResponse(bytes.NewReader(seeds[1])); err != nil || id != 7 || status != 0 || string(payload) != "result" {
		t.Errorf("valid response: id %d status %d payload %q err %v", id, status, payload, err)
	}
	if _, _, _, err := readCall(bytes.NewReader(seeds[2])); err == nil {
		t.Error("call declaring 64 MiB with no body was accepted")
	}
	if _, _, _, err := readResponse(bytes.NewReader(seeds[3])); err == nil {
		t.Error("response declaring 64 MiB with no body was accepted")
	}
	if _, _, _, err := readCall(bytes.NewReader(seeds[4])); err == nil {
		t.Error("call with a cut method name was accepted")
	}
}
