package kvbuf

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// drain reads a segment to its end, returning the records seen and the
// first error.
func drain(seg *Segment) (records int, err error) {
	r := seg.NewReader()
	for {
		_, _, ok, err := r.Next()
		if err != nil || !ok {
			return r.RecordsRead(), err
		}
	}
}

func provenanceSegment() *Segment {
	w := NewWriter(64)
	w.Append([]byte("alpha"), bytes.Repeat([]byte("1"), 300))
	w.Append([]byte("beta"), bytes.Repeat([]byte("2"), 300))
	return w.Close()
}

// TestUnprovenBytesAreStillVerified: the mark saves a re-scan only for
// bytes this package itself sealed or checked. Every flipped body bit of an
// adopted stream is still caught by the Reader, and by Verify.
func TestUnprovenBytesAreStillVerified(t *testing.T) {
	clean := provenanceSegment().Bytes()
	if n, err := drain(SegmentFromBytes(bytes.Clone(clean))); n != 2 || err != nil {
		t.Fatalf("clean adopted stream: %d records, err %v", n, err)
	}
	for bit := 0; bit < (len(clean)-4)*8; bit += 7 {
		data := bytes.Clone(clean)
		data[bit/8] ^= 1 << (bit % 8)
		if _, err := drain(SegmentFromBytes(data)); err == nil {
			t.Fatalf("bit %d flipped: the Reader accepted the stream", bit)
		}
		if err := SegmentFromBytes(data).Verify(); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("bit %d flipped: Verify = %v, want ErrCorruptSegment", bit, err)
		}
	}
}

// TestProvenanceIsSetOnlyByProof walks every way a segment comes to exist.
func TestProvenanceIsSetOnlyByProof(t *testing.T) {
	sealed := provenanceSegment()
	if !sealed.verified {
		t.Error("Writer.Close just computed the trailer: its segment must be marked")
	}
	adopted := SegmentFromBytes(bytes.Clone(sealed.Bytes()))
	if adopted.verified {
		t.Error("SegmentFromBytes marked bytes of unproven origin")
	}
	if err := adopted.Verify(); err != nil || !adopted.verified {
		t.Errorf("Verify on clean bytes: err %v, marked %v", err, adopted.verified)
	}
	streamed, err := ReadSegment(bytes.NewReader(sealed.Bytes()), sealed.Len())
	if err != nil || !streamed.verified || !bytes.Equal(streamed.Bytes(), sealed.Bytes()) {
		t.Errorf("ReadSegment on clean bytes: err %v", err)
	}
	z := CompressSegmentWith(sealed, Deflate)
	d, err := z.Decompress()
	if err != nil || d.verified {
		t.Errorf("Decompress checks nothing and must not mark: err %v", err)
	}
	inflated, err := ReadCompressedSegment(bytes.NewReader(z.Bytes()), z.Len())
	if err != nil || !inflated.verified {
		t.Errorf("ReadCompressedSegment on clean bytes: err %v", err)
	}
	for _, s := range []*Segment{sealed, adopted, streamed, d, inflated} {
		if n, err := drain(s); n != 2 || err != nil {
			t.Errorf("clean segment read %d records, err %v", n, err)
		}
	}
}

// TestReadSegmentRejectsCorruptPayloads: a damaged wire payload never
// becomes a segment, is consumed in full (so a pipelined connection stays
// in sync), and is reported as retryable corruption.
func TestReadSegmentRejectsCorruptPayloads(t *testing.T) {
	clean := provenanceSegment().Bytes()
	next := []byte("next response")
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"body-bit-flip", func() []byte { d := bytes.Clone(clean); d[len(d)/2] ^= 0x10; return d }()},
		{"trailer-bit-flip", func() []byte { d := bytes.Clone(clean); d[len(d)-1] ^= 1; return d }()},
		{"truncated", clean[:len(clean)-9]},
		{"shorter-than-a-trailer", clean[:3]},
		{"empty", nil},
	} {
		r := bytes.NewReader(append(bytes.Clone(tc.payload), next...))
		seg, err := ReadSegment(r, len(tc.payload))
		if seg != nil || !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s: seg %v err %v, want ErrCorruptSegment", tc.name, seg, err)
		}
		if r.Len() != len(next) {
			t.Errorf("%s: %d bytes left in the stream, want the next response's %d", tc.name, r.Len(), len(next))
		}
	}
	// A stream that ends inside the payload is an I/O failure, not corruption.
	if _, err := ReadSegment(bytes.NewReader(clean[:10]), len(clean)); err == nil || errors.Is(err, ErrCorruptSegment) {
		t.Errorf("short stream: err %v, want a plain I/O error", err)
	}
}

// TestRecycleClearsProvenance: the mark belongs to the bytes it was proven
// on. A recycled segment forgets it, and its buffer — handed out again and
// re-adopted with other contents — is verified like any other.
func TestRecycleClearsProvenance(t *testing.T) {
	seg := provenanceSegment()
	buf := seg.Bytes()
	seg.Recycle()
	if seg.verified || seg.Len() != 0 {
		t.Fatalf("recycled segment keeps state: verified %v, %d bytes", seg.verified, seg.Len())
	}
	buf[50] ^= 0x04 // the pool's next user scribbles on it, inside the first value
	if _, err := drain(SegmentFromBytes(buf)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("re-adopted recycled buffer with a flipped bit: err %v, want a checksum error", err)
	}
}

// TestProvenTrailerMustBeTheOneConsumed: the mark vouches for the trailer
// in the last four bytes. A stream whose whole-buffer checksum matches but
// whose records end earlier is read exactly as an unmarked one would be.
func TestProvenTrailerMustBeTheOneConsumed(t *testing.T) {
	inner := provenanceSegment().Bytes()
	junk := append(bytes.Clone(inner[:len(inner)-4]), 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k')
	crc := UpdateCRC(0, junk)
	junk = append(junk, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	marked := SegmentFromBytes(junk)
	if err := marked.Verify(); err != nil || !marked.verified {
		t.Fatalf("whole-buffer checksum was built to match: err %v", err)
	}
	_, wantErr := drain(SegmentFromBytes(junk))
	if _, err := drain(marked); (err == nil) != (wantErr == nil) || wantErr == nil {
		t.Errorf("marked read err %v, unmarked read err %v: both must reject the inner trailer", err, wantErr)
	}
}
