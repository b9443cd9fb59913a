// Package xxh64 is the XXH64 hash with seed 0, written from the xxHash
// specification (github.com/Cyan4973/xxHash, doc/xxhash_spec.md). It is the
// suite's one fingerprint function: output digests, directory digests and
// the HS row digest all go through it. Its value depends on the bytes alone,
// never on the process or host, so digests compare across dist workers and
// against committed goldens.
//
// XXH64 consumes 32-byte stripes as four independent 8-byte lanes, so a
// long input costs one multiply per 8 bytes instead of FNV's one per byte.
// Sum64 hashes a slice in one shot; a Digest streams and implements
// hash.Hash64. Both agree for every split of the input.
package xxh64

import (
	"encoding/binary"
	"math/bits"
)

const (
	p1 uint64 = 0x9E3779B185EBCA87
	p2 uint64 = 0xC2B2AE3D27D4EB4F
	p3 uint64 = 0x165667B19E3779F9
	p4 uint64 = 0x85EBCA77C2B2AE63
	p5 uint64 = 0x27D4EB2F165667C5
)

// stripe is how many bytes the four lanes consume at a time.
const stripe = 32

// lanes are the four accumulators of the stripe loop.
type lanes [4]uint64

// seedLanes are the lanes' starting values for seed 0. The constant
// expressions would overflow, so they wrap at run time.
var seedLanes = func() lanes {
	v := p1
	return lanes{v + p2, p2, 0, -v}
}()

func round(acc, input uint64) uint64 {
	return bits.RotateLeft64(acc+input*p2, 31) * p1
}

// stripes folds every whole 32-byte stripe of b into the lanes and returns
// the rest of b.
func (l *lanes) stripes(b []byte) []byte {
	v1, v2, v3, v4 := l[0], l[1], l[2], l[3]
	for ; len(b) >= stripe; b = b[stripe:] {
		v1 = round(v1, binary.LittleEndian.Uint64(b[0:8]))
		v2 = round(v2, binary.LittleEndian.Uint64(b[8:16]))
		v3 = round(v3, binary.LittleEndian.Uint64(b[16:24]))
		v4 = round(v4, binary.LittleEndian.Uint64(b[24:32]))
	}
	l[0], l[1], l[2], l[3] = v1, v2, v3, v4
	return b
}

// converge merges the four lanes into one accumulator.
func (l *lanes) converge() uint64 {
	h := bits.RotateLeft64(l[0], 1) + bits.RotateLeft64(l[1], 7) +
		bits.RotateLeft64(l[2], 12) + bits.RotateLeft64(l[3], 18)
	for _, v := range l {
		h = (h^round(0, v))*p1 + p4
	}
	return h
}

// finish consumes the tail (under 32 bytes) in 8-, 4- and 1-byte steps and
// avalanches. h already holds the total input length.
func finish(h uint64, tail []byte) uint64 {
	for ; len(tail) >= 8; tail = tail[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(tail))
		h = bits.RotateLeft64(h, 27)*p1 + p4
	}
	if len(tail) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(tail)) * p1
		h = bits.RotateLeft64(h, 23)*p2 + p3
		tail = tail[4:]
	}
	for _, c := range tail {
		h ^= uint64(c) * p5
		h = bits.RotateLeft64(h, 11) * p1
	}
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	h ^= h >> 32
	return h
}

// Sum64 returns the XXH64 digest (seed 0) of b.
func Sum64(b []byte) uint64 {
	h := p5
	n := uint64(len(b))
	if len(b) >= stripe {
		l := seedLanes
		b = l.stripes(b)
		h = l.converge()
	}
	return finish(h+n, b)
}

// Digest is a streaming XXH64 (seed 0). Its zero value is not ready for
// use; New returns one that is.
type Digest struct {
	lanes lanes
	total uint64       // bytes written since Reset
	buf   [stripe]byte // a partial stripe
	nbuf  int
}

// New returns a Digest holding the hash of no input.
func New() *Digest {
	d := new(Digest)
	d.Reset()
	return d
}

// Reset returns d to the hash of no input.
func (d *Digest) Reset() {
	d.lanes = seedLanes
	d.total = 0
	d.nbuf = 0
}

// Write adds b to the running hash. It never fails.
func (d *Digest) Write(b []byte) (int, error) {
	n := len(b)
	d.total += uint64(n)
	if d.nbuf > 0 {
		c := copy(d.buf[d.nbuf:], b)
		if d.nbuf += c; d.nbuf < stripe {
			return n, nil
		}
		d.lanes.stripes(d.buf[:])
		b = b[c:]
	}
	b = d.lanes.stripes(b)
	d.nbuf = copy(d.buf[:], b)
	return n, nil
}

// Sum64 returns the hash of everything written since Reset; it does not
// change d.
func (d *Digest) Sum64() uint64 {
	h := p5
	if d.total >= stripe {
		h = d.lanes.converge()
	}
	return finish(h+d.total, d.buf[:d.nbuf])
}

// Sum appends the big-endian hash to b, the canonical xxHash byte order.
func (d *Digest) Sum(b []byte) []byte { return binary.BigEndian.AppendUint64(b, d.Sum64()) }

// Size returns the checksum's length in bytes, 8.
func (d *Digest) Size() int { return 8 }

// BlockSize returns the stripe length, 32.
func (d *Digest) BlockSize() int { return stripe }
