//go:build !linux

package kvbuf

// makeBuf returns an empty buffer of capacity exactly n (huge pages: Linux only).
func makeBuf(n int) []byte { return make([]byte, 0, n) }
