// Package javarand is a bit-exact reimplementation of java.util.Random's
// 48-bit linear congruential generator.
//
// The paper's MR-RAND micro-benchmark picks reducers with java.util.Random
// bounded nextInt; reproducing the partitioner faithfully requires the same
// generator, including its power-of-two fast path and rejection sampling for
// other bounds.
package javarand

const (
	multiplier = 0x5DEECE66D
	addend     = 0xB
	mask       = (1 << 48) - 1
)

// Rand is a deterministic java.util.Random-compatible source. Not safe for
// concurrent use (matching typical single-task use in a partitioner).
type Rand struct {
	seed int64
}

// New returns a generator seeded exactly as new java.util.Random(seed).
func New(seed int64) *Rand {
	return &Rand{seed: (seed ^ multiplier) & mask}
}

// SetSeed reseeds the generator, as java.util.Random.setSeed.
func (r *Rand) SetSeed(seed int64) { r.seed = (seed ^ multiplier) & mask }

// next returns the low `bits` bits of the next LCG step, as Java's
// protected int next(int bits).
func (r *Rand) next(bits uint) int32 {
	r.seed = (r.seed*multiplier + addend) & mask
	return int32(r.seed >> (48 - bits))
}

// NextInt returns the next pseudorandom int32 over the full range.
func (r *Rand) NextInt() int32 { return r.next(32) }

// NextIntn returns a uniform value in [0, bound), as Java's nextInt(bound).
// It panics if bound <= 0, matching Java's IllegalArgumentException.
func (r *Rand) NextIntn(bound int32) int32 {
	if bound <= 0 {
		panic("javarand: bound must be positive")
	}
	if bound&(-bound) == bound { // power of two
		return int32((int64(bound) * int64(r.next(31))) >> 31)
	}
	for {
		bits := r.next(31)
		val := bits % bound
		if bits-val+(bound-1) >= 0 {
			return val
		}
	}
}

// NextLong returns the next pseudorandom int64, as Java's nextLong.
func (r *Rand) NextLong() int64 {
	hi := int64(r.next(32))
	lo := int64(r.next(32))
	return (hi << 32) + lo
}

// NextDouble returns the next pseudorandom float64 in [0, 1), as Java.
func (r *Rand) NextDouble() float64 {
	hi := int64(r.next(26))
	lo := int64(r.next(27))
	return float64((hi<<27)+lo) / float64(int64(1)<<53)
}

// NextFloat returns the next pseudorandom float32 in [0, 1), as Java.
func (r *Rand) NextFloat() float32 {
	return float32(r.next(24)) / float32(int32(1)<<24)
}

// NextBytes fills b with pseudorandom bytes exactly as Java's nextBytes:
// each 4-byte group comes from one nextInt, least significant byte first.
func (r *Rand) NextBytes(b []byte) {
	for i := 0; i < len(b); {
		v := r.NextInt()
		for n := 0; n < 4 && i < len(b); n++ {
			b[i] = byte(v)
			v >>= 8
			i++
		}
	}
}
