package writable

import "encoding/binary"

// PrefixFunc maps a serialized key to an order-preserving uint64 prefix:
// prefix(a) < prefix(b) implies the raw comparator orders a before b, and
// equal prefixes are inconclusive (the caller falls back to the full
// comparator). Sort hot loops compare the integer first, so most decisions
// never touch key bytes.
type PrefixFunc func(key []byte) uint64

// bytesPrefix packs up to the first 8 bytes of payload big-endian,
// zero-padded: lexicographic byte order maps to uint64 order, with ties only
// when the first 8 payload bytes agree.
func bytesPrefix(payload []byte) uint64 {
	if len(payload) >= 8 {
		return binary.BigEndian.Uint64(payload)
	}
	var p uint64
	for _, b := range payload {
		p = p<<8 | uint64(b)
	}
	return p << (8 * (8 - uint(len(payload))))
}

func zeroPrefix([]byte) uint64 { return 0 }

// longPrefix flips the sign bit so unsigned order matches signed order.
func longPrefix(key []byte) uint64 {
	if len(key) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(key) ^ 0x8000000000000000
}

func bytesWritablePrefix(key []byte) uint64 {
	if len(key) < 4 {
		return 0
	}
	return bytesPrefix(key[4:])
}

func textPrefix(key []byte) uint64 {
	if len(key) < 1 {
		return 0
	}
	n := VIntSize(key[0])
	if len(key) < n {
		return 0
	}
	return bytesPrefix(key[n:])
}

// PrefixExtractor returns the order-preserving prefix extractor for a
// registered type; ok is false for a name that is not registered.
func PrefixExtractor(name string) (PrefixFunc, bool) {
	r, ok := registry[name]
	return r.prefix, ok
}
