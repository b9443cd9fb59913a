package kvbuf

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mrmicro/internal/writable"
)

func newTestRing(max int) *BufferRing {
	order, _ := writable.Order("BytesWritable")
	return NewBufferRing(1<<20, 2, max, order)
}

func TestBufferRingLazyCreation(t *testing.T) {
	r := newTestRing(3)
	a, blocked := r.Take()
	if a == nil || blocked {
		t.Fatalf("first Take: buf=%v blocked=%v", a, blocked)
	}
	b, blocked := r.Take()
	if b == nil || blocked {
		t.Fatalf("second Take: buf=%v blocked=%v", b, blocked)
	}
	if a == b {
		t.Fatal("ring handed out the same buffer twice without a Put")
	}
	// A returned buffer is preferred over creating a third.
	r.Put(a)
	c, blocked := r.Take()
	if blocked {
		t.Error("Take blocked with a free buffer in the ring")
	}
	if c != a {
		t.Error("ring created a new buffer instead of recycling the free one")
	}
	r.Put(b)
	r.Put(c)
	r.Release()
}

func TestBufferRingMaxClampsToDoubleBuffer(t *testing.T) {
	r := newTestRing(0) // absurd bound: still one active + one spilling
	a, _ := r.Take()
	b, _ := r.Take()
	done := make(chan *SortBuffer)
	go func() {
		// Whether this observes blocked=true depends on scheduling (the Put
		// below may land first); the clamp guarantee is that no third buffer
		// is ever created, so the buffer that comes back must be a.
		buf, _ := r.Take()
		done <- buf
	}()
	r.Put(a)
	if got := <-done; got != a {
		t.Error("clamped ring created a third buffer instead of waiting for the Put")
	}
	r.Put(b)
	r.Release()
}

func TestBufferRingBlockedFlagOnlyUnderPressure(t *testing.T) {
	r := newTestRing(2)
	a, blockedA := r.Take()
	_, blockedB := r.Take()
	if blockedA || blockedB {
		t.Fatal("Take blocked while the ring was under its bound")
	}
	// Same exchange a collector performs at a spill: hand off, then Take with
	// the free list non-empty must not count as a stall.
	r.Put(a)
	if _, blocked := r.Take(); blocked {
		t.Error("Take reported a stall with a free buffer available")
	}
}

func TestBufferRingPrefixFuncInstalled(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	called := false
	r := NewBufferRing(1<<20, 2, 2, writable.KeyOrder{Cmp: cmp, Prefix: func(raw []byte) uint64 {
		called = true
		return 0
	}})
	buf, _ := r.Take()
	if ok, err := buf.Add(0, mkBytesWritable("k"), []byte("v")); err != nil || !ok {
		t.Fatalf("add: %v ok=%v", err, ok)
	}
	if !called {
		t.Error("ring-created buffer did not use the order's prefix func")
	}
}

// TestBufferRingConcurrentExchange is the -race witness for the collector /
// spiller hand-off: one goroutine fills and hands off buffers, the other
// spills, recycles the segments, and Puts the buffer back — the exact
// life-cycle the localrun spill pipeline runs, including the shared slab and
// meta pools that back SortBuffer and Segment memory.
func TestBufferRingConcurrentExchange(t *testing.T) {
	r := newTestRing(2)
	jobs := make(chan *SortBuffer, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for buf := range jobs {
			segs, _ := buf.Spill()
			r.Put(buf)
			for _, seg := range segs {
				if err := checkTrailer(seg); err != nil {
					t.Errorf("spilled segment corrupt: %v", err)
				}
				seg.Recycle()
			}
		}
	}()
	buf, _ := r.Take()
	for spill := 0; spill < 40; spill++ {
		for i := 0; i < 50; i++ {
			k := mkBytesWritable(fmt.Sprintf("key-%02d", i))
			if ok, err := buf.Add(i%2, k, []byte("value")); err != nil || !ok {
				t.Fatalf("add: %v ok=%v", err, ok)
			}
		}
		jobs <- buf
		buf, _ = r.Take()
	}
	close(jobs)
	wg.Wait()
	buf.Release()
	r.Release()
}

// TestBufferRingOrderProofPerBuffer is the -race witness for the proof of
// order Commit makes: the collector fills one buffer, proving its chains
// ordered record by record, while the spiller hands the other's ordered
// chains over. The proof lives in each buffer's chains, so the partition
// that broke order in one fill never leaks into the next: every spill hands
// over exactly the partition its fill kept in order and copies the other.
func TestBufferRingOrderProofPerBuffer(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	r := newTestRing(2)
	type fill struct {
		buf     *SortBuffer
		ordered int   // the partition kept in order
		first   *byte // its chain's first byte: where a handed-over segment starts
		want    [][]byte
	}
	jobs := make(chan fill, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range jobs {
			segs, _ := f.buf.Spill()
			r.Put(f.buf)
			for p, seg := range segs {
				ranges := seg.AppendRanges(nil)
				if handed := &ranges[0][0] == f.first; handed != (p == f.ordered) {
					t.Errorf("ordered partition %d: partition %d handed over = %v", f.ordered, p, handed)
				}
				if !bytes.Equal(seg.Bytes(), f.want[p]) {
					t.Errorf("ordered partition %d: partition %d differs from the naive stable sort", f.ordered, p)
				}
				if err := checkTrailer(seg); err != nil {
					t.Errorf("ordered partition %d: partition %d: %v", f.ordered, p, err)
				}
				seg.Recycle()
			}
		}
	}()
	val := make([]byte, 1<<10)
	for spill := 0; spill < 20; spill++ {
		f := fill{ordered: spill % 2}
		f.buf, _ = r.Take()
		var recs []spillRec
		for i := 0; i < 300; i++ {
			rec := spillRec{part: i % 2, key: mkBytesWritable("one-key"), val: val}
			if rec.part != f.ordered {
				rec.key = mkBytesWritable(fmt.Sprintf("key-%03d", 300-i))
			}
			if ok, err := f.buf.Add(rec.part, rec.key, rec.val); err != nil || !ok {
				t.Fatalf("add: %v ok=%v", err, ok)
			}
			recs = append(recs, rec)
		}
		f.first = &f.buf.chains[f.ordered].chunks[0][0]
		f.want = naiveSpill(cmp, 2, recs)
		jobs <- f
	}
	close(jobs)
	wg.Wait()
	r.Release()
}
