// ring.go is the buffer-exchange half of the map side's background
// SpillThread: a small ring of SortBuffers cycled between a collector (which
// fills the active buffer) and a background spiller (which sorts and seals
// full ones). With max=2 — the default, Hadoop's double buffer — the
// collector hands a full buffer to the spiller and immediately keeps
// collecting into the other; it only blocks (backpressure) when every buffer
// is sealed and still unspilled. Spill *boundaries* never depend on the
// ring: every buffer has the full io.sort.mb capacity and the caller applies
// the same ShouldSpill threshold, so the record ranges per spill are a pure
// function of the record stream and the conf, not of spiller timing.
package kvbuf

import "mrmicro/internal/writable"

// BufferRing hands out up to max SortBuffers of identical capacity,
// recycling emptied ones. It is safe for one taker (the collector) and one
// returner (the spiller) to run concurrently.
type BufferRing struct {
	capacity   int
	partitions int
	order      writable.KeyOrder

	free    chan *SortBuffer
	created int
	max     int
}

// NewBufferRing sizes a ring of at most max buffers (min 2: one active, one
// spilling). Buffers are created lazily, so a map task that never spills
// allocates exactly one. Every buffer sorts by order.
func NewBufferRing(capacityBytes, partitions, max int, order writable.KeyOrder) *BufferRing {
	if max < 2 {
		max = 2
	}
	return &BufferRing{
		capacity:   capacityBytes,
		partitions: partitions,
		order:      order,
		free:       make(chan *SortBuffer, max),
		max:        max,
	}
}

// Take returns an empty buffer, creating one while under the ring bound.
// When all max buffers are out and sealed it blocks until Put returns one —
// exactly the collector's backpressure stall. blocked reports whether the
// call had to wait.
func (r *BufferRing) Take() (buf *SortBuffer, blocked bool) {
	select {
	case buf = <-r.free:
		return buf, false
	default:
	}
	if r.created < r.max {
		r.created++
		buf = NewSortBuffer(r.capacity, r.partitions, r.order.Cmp)
		buf.SetPrefixFunc(r.order.Prefix)
		return buf, false
	}
	return <-r.free, true
}

// Put returns an emptied buffer (Spill resets it in place) to the ring.
func (r *BufferRing) Put(buf *SortBuffer) { r.free <- buf }

// Release returns every idle buffer's backing arrays to the shared pools.
// The caller must have stopped both sides first; buffers still held by a
// crashed spiller are simply garbage-collected.
func (r *BufferRing) Release() {
	for {
		select {
		case buf := <-r.free:
			buf.Release()
		default:
			return
		}
	}
}
