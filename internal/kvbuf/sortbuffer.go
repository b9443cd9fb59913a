package kvbuf

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mrmicro/internal/writable"
)

// recordMeta locates one buffered record inside the slab, Hadoop's kvmeta
// equivalent: the key starts at off in chunk and the value follows it.
type recordMeta struct {
	partition      int32
	chunk, off     int32
	keyLen, valLen int32
}

// SortBuffer is the map-side collection buffer (io.sort.mb): records
// accumulate in a byte slab with metadata entries; Spill sorts them by
// (partition, key) using the key type's raw comparator and emits one IFile
// segment per partition.
//
// The slab is a list of fixed-size chunks, so a byte lands once and is never
// moved by growth: a record never straddles chunks (the tail of a chunk too
// short for the next record stays unused) and one larger than a chunk gets a
// chunk of its own. Records are serialised straight into the tail chunk
// (Reserve/Commit; Add is the same two steps for bytes already serialised).
// A buffer keeps its chunks across Spill and Reset, so a multi-spill map and
// the buffer ring refill warm memory; only Release hands them back.
//
// The spill path is the map side's hottest loop, so it avoids the obvious
// costs: records are grouped by partition with a stable counting pass (no
// partition comparisons at all), each partition is sorted as compact
// (prefix, index) entries on integers alone with the key bytes consulted
// only to resolve equal-prefix runs (see spillPartition), partitions sort
// and serialize in parallel when the record count warrants it, and every
// per-partition IFile writer is sized from the exact bytes observed at
// Commit time so segment buffers never regrow. Chunks and metadata arrays
// are recycled across SortBuffer instances via Release().
type SortBuffer struct {
	order      writable.KeyOrder
	partitions int
	capacity   int

	chunks  [][]byte            // the slab; len(chunk) is its fill, chunks past tail are empty
	tail    int                 // chunk being filled
	payload int                 // record bytes buffered, what Used charges beside the metadata
	lastLen int                 // size of the last committed record: Reserve's guess at the next
	out     writable.DataOutput // the open reservation, positioned at the tail chunk's free space

	meta     []recordMeta
	prefixes []uint64 // parallel to meta: each key's order.Prefix

	partRecs  []int32 // records per partition (reset each spill)
	partBytes []int64 // exact IFile body bytes per partition (reset each spill)
}

// MetaBytesPerRecord approximates the bookkeeping overhead Hadoop charges
// per record against io.sort.mb (kvmeta's 16 bytes plus kvindex).
const MetaBytesPerRecord = 16

// parallelSpillRecords is the record count past which Spill fans partitions
// out across GOMAXPROCS goroutines; below it the goroutine handoff costs
// more than the sort.
const parallelSpillRecords = 4096

// segmentTrailerBytes is the fixed IFile tail: two 1-byte EOF vints plus the
// 4-byte CRC32 trailer.
const segmentTrailerBytes = 6

// slabChunkBytes is the size of one slab chunk: large enough that the unused
// tail of a chunk and the per-chunk bookkeeping vanish against the records,
// small enough that a buffer's first records do not wait for megabytes of
// fresh pages to be zeroed.
const slabChunkBytes = 1 << 20

// chunkPool is the one free list slab chunks come from and Release returns
// them to. Every pooled chunk has exactly slabChunkBytes of capacity.
var chunkPool sync.Pool // of *[slabChunkBytes]byte

// newChunk returns an empty chunk with room for n bytes: a pooled
// fixed-size one, or an exactly-sized one for a record larger than that.
func newChunk(n int) []byte {
	if n > slabChunkBytes {
		return make([]byte, 0, n)
	}
	if c, _ := chunkPool.Get().(*[slabChunkBytes]byte); c != nil {
		return c[:0]
	}
	return make([]byte, 0, slabChunkBytes)
}

func freeChunk(c []byte) {
	if cap(c) == slabChunkBytes {
		chunkPool.Put((*[slabChunkBytes]byte)(c[:slabChunkBytes]))
	}
}

// Pools recycling the per-buffer metadata arrays across SortBuffer instances
// (one per map attempt) and the per-spill sort index.
var (
	metaPool   = sync.Pool{New: func() any { return new([]recordMeta) }}
	prefixPool = sync.Pool{New: func() any { return new([]uint64) }}
	entryPool  = sync.Pool{New: func() any { return new([]sortEntry) }}
)

// sortEntry is one record in a spill's sort index: its order-preserving key
// prefix and its position in meta, which doubles as the insertion-order
// tie-break.
type sortEntry struct {
	prefix uint64
	idx    int32
}

// NewSortBuffer creates a buffer of capacityBytes for the given partition
// count, sorting keys by cmp alone until SetPrefixFunc installs a prefix.
func NewSortBuffer(capacityBytes, partitions int, cmp writable.RawComparator) *SortBuffer {
	if capacityBytes <= 0 || partitions <= 0 {
		panic("kvbuf: capacity and partitions must be positive")
	}
	if cmp == nil {
		panic("kvbuf: nil comparator")
	}
	return &SortBuffer{
		order:      writable.ByComparator(cmp),
		partitions: partitions,
		capacity:   capacityBytes,
		meta:       (*metaPool.Get().(*[]recordMeta))[:0],
		prefixes:   (*prefixPool.Get().(*[]uint64))[:0],
		partRecs:   make([]int32, partitions),
		partBytes:  make([]int64, partitions),
	}
}

// SetPrefixFunc installs an order-preserving key-prefix extractor (see
// writable.PrefixExtractor); the sort then runs on the prefixes and calls
// the raw comparator only inside runs of equal prefixes whose keys differ.
// Must be called before the first record.
func (b *SortBuffer) SetPrefixFunc(f writable.PrefixFunc) {
	if f == nil {
		panic("kvbuf: nil prefix func")
	}
	if len(b.meta) > 0 {
		panic("kvbuf: SetPrefixFunc after Add")
	}
	b.order.Prefix = f
}

// Release returns the buffer's backing arrays to the shared pools. The
// buffer must not be used afterwards. Segments returned by earlier Spills
// stay valid: they own their bytes.
func (b *SortBuffer) Release() {
	for _, c := range b.chunks {
		freeChunk(c)
	}
	b.chunks = nil
	if b.meta != nil {
		m, p := b.meta[:0], b.prefixes[:0]
		metaPool.Put(&m)
		prefixPool.Put(&p)
		b.meta, b.prefixes = nil, nil
	}
}

// tailFor returns the chunk an n-byte record goes to, moving the tail on when
// the current chunk cannot hold it. Chunks past the tail are empty ones kept
// from an earlier fill; one too small for the record is replaced.
func (b *SortBuffer) tailFor(n int) []byte {
	for {
		if b.tail == len(b.chunks) {
			b.chunks = append(b.chunks, newChunk(n))
		}
		c := b.chunks[b.tail]
		switch {
		case n <= cap(c)-len(c):
			return c
		case len(c) == 0:
			freeChunk(c)
			b.chunks[b.tail] = newChunk(n)
		default:
			b.tail++
		}
	}
}

// reserve opens a reservation in a chunk with room for n bytes (at most a
// chunk's worth: a larger record is written past the reservation and gets
// its own chunk at Commit).
func (b *SortBuffer) reserve(n int) *writable.DataOutput {
	c := b.tailFor(min(n, slabChunkBytes))
	b.out.ResetOn(c[len(c):])
	return &b.out
}

// Reserve opens a reservation for one record: the caller writes the key and
// then the value to the returned output, which appends straight into the
// slab, and calls Commit. Nothing is buffered until Commit; a second Reserve
// discards the first. The reservation sits where a record as long as the
// previous one fits, so same-sized records never outgrow it; one that does
// is moved to the next chunk at Commit.
func (b *SortBuffer) Reserve() *writable.DataOutput { return b.reserve(b.lastLen) }

// Commit buffers the record written since Reserve, whose first keyLen bytes
// are the key. It returns false when the record does not fit (the buffer is
// unchanged; the caller must spill, then reserve and write the record
// again); a single record larger than the whole buffer is an error.
func (b *SortBuffer) Commit(partition, keyLen int) (bool, error) {
	rec := b.out.Bytes()
	n := len(rec)
	if partition < 0 || partition >= b.partitions {
		return false, fmt.Errorf("kvbuf: partition %d out of range [0,%d)", partition, b.partitions)
	}
	if keyLen < 0 || keyLen > n {
		return false, fmt.Errorf("kvbuf: key length %d outside the %d-byte record", keyLen, n)
	}
	sz := n + MetaBytesPerRecord
	if sz > b.capacity {
		return false, fmt.Errorf("kvbuf: record of %d bytes exceeds buffer capacity %d", sz, b.capacity)
	}
	if b.Used()+sz > b.capacity {
		return false, nil
	}
	c := b.tailFor(n)
	off := len(c)
	c = c[:off+n]
	if n > 0 && &c[off] != &rec[0] {
		// The record outgrew its reservation: the output moved to a grown
		// copy, which is re-homed here, once per chunk at most.
		copy(c[off:], rec)
	}
	b.chunks[b.tail] = c
	b.payload += n
	b.lastLen = n
	b.meta = append(b.meta, recordMeta{
		partition: int32(partition),
		chunk:     int32(b.tail), off: int32(off),
		keyLen: int32(keyLen), valLen: int32(n - keyLen),
	})
	b.prefixes = append(b.prefixes, b.order.Prefix(c[off:off+keyLen]))
	b.partRecs[partition]++
	b.partBytes[partition] += int64(n) +
		int64(writable.VLongEncodedLen(int64(keyLen))+writable.VLongEncodedLen(int64(n-keyLen)))
	return true, nil
}

// Add buffers one already-serialised record: Reserve, write, Commit. It
// returns false when the record does not fit (the caller must spill first);
// a single record larger than the whole buffer is an error.
func (b *SortBuffer) Add(partition int, key, val []byte) (bool, error) {
	out := b.reserve(len(key) + len(val))
	out.Write(key)
	out.Write(val)
	return b.Commit(partition, len(key))
}

// Used returns the occupied bytes including per-record metadata. It counts
// record bytes, never chunk capacity, so where a buffer fills does not depend
// on how its records fell into chunks.
func (b *SortBuffer) Used() int { return b.payload + len(b.meta)*MetaBytesPerRecord }

// Capacity returns the configured capacity in bytes.
func (b *SortBuffer) Capacity() int { return b.capacity }

// Records returns the buffered record count.
func (b *SortBuffer) Records() int { return len(b.meta) }

// ShouldSpill reports whether occupancy passed the spill threshold.
func (b *SortBuffer) ShouldSpill(spillPercent float64) bool {
	return float64(b.Used()) >= spillPercent*float64(b.capacity)
}

// Spill sorts the buffered records by (partition, key) and returns one
// segment per partition (empty partitions yield empty segments), then
// resets the buffer. Comparisons is the number of comparisons the sort
// performed — insertion-sort steps on prefixes, equal-run byte checks and
// raw comparator calls alike; the radix passes compare nothing — a
// deterministic work count for benchmarks. The sort is stable: records with
// equal keys keep insertion order, so output is deterministic regardless of
// how many goroutines the spill used.
func (b *SortBuffer) Spill() (segs []*Segment, comparisons int64) {
	n := len(b.meta)
	segs = make([]*Segment, b.partitions)

	// Stable counting pass: place each record's entry into its partition's
	// contiguous range. Partition grouping costs zero comparisons. The second
	// half of the pooled array is the radix scatter's scratch; a partition
	// only ever touches its own window of either half.
	entp := entryPool.Get().(*[]sortEntry)
	all := *entp
	if cap(all) < 2*n {
		all = make([]sortEntry, 2*n)
	} else {
		all = all[:2*n]
	}
	ent, scratch := all[:n], all[n:]
	starts := make([]int32, b.partitions+1)
	for p := 0; p < b.partitions; p++ {
		starts[p+1] = starts[p] + b.partRecs[p]
	}
	fill := make([]int32, b.partitions)
	copy(fill, starts[:b.partitions])
	for i := range b.meta {
		p := b.meta[i].partition
		ent[fill[p]] = sortEntry{prefix: b.prefixes[i], idx: int32(i)}
		fill[p]++
	}

	if n >= parallelSpillRecords && b.partitions > 1 && runtime.GOMAXPROCS(0) > 1 {
		var total atomic.Int64
		var wg sync.WaitGroup
		var next atomic.Int32
		workers := min(runtime.GOMAXPROCS(0), b.partitions)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var comps int64
				for {
					p := int(next.Add(1)) - 1
					if p >= b.partitions {
						break
					}
					comps += b.spillPartition(p, ent[starts[p]:starts[p+1]], scratch[starts[p]:starts[p+1]], segs)
				}
				total.Add(comps)
			}()
		}
		wg.Wait()
		comparisons = total.Load()
	} else {
		for p := 0; p < b.partitions; p++ {
			comparisons += b.spillPartition(p, ent[starts[p]:starts[p+1]], scratch[starts[p]:starts[p+1]], segs)
		}
	}

	*entp = all
	entryPool.Put(entp)
	b.Reset()
	return segs, comparisons
}

// Reset empties the buffer for reuse without releasing its backing arrays
// (Spill resets implicitly; this covers discarding buffered records, e.g.
// when a background spill pipeline drains after an error).
func (b *SortBuffer) Reset() {
	for i := range b.chunks {
		b.chunks[i] = b.chunks[i][:0]
	}
	b.tail, b.payload = 0, 0
	b.meta = b.meta[:0]
	b.prefixes = b.prefixes[:0]
	for p := range b.partRecs {
		b.partRecs[p] = 0
		b.partBytes[p] = 0
	}
}

// spillPartition sorts one partition's entries by (key, insertion order) and
// serializes them into an exactly-sized IFile segment, returning the key
// comparisons spent (integer and byte-wise alike).
//
// The entries arrive in insertion order. They are first sorted on
// (prefix, idx) by a stable radix sort on the prefix (radixSort, with
// scratch as its scatter target) — integers in a contiguous array, no slab
// access. That is already the final order wherever a prefix decides it, and
// also inside any equal-prefix run whose keys are all byte-equal (equal keys
// keep insertion order), which one linear pass over the run establishes;
// only a run holding distinct keys under one prefix is re-sorted with the
// raw comparator. The result is the order a stable full-comparator sort
// produces, for any input, while the slab is touched O(n) times instead of
// O(n log n). Under writable.ByComparator every prefix is zero: one pass
// finds nothing to scatter, then one run, sorted by comparator.
func (b *SortBuffer) spillPartition(p int, part, scratch []sortEntry, segs []*Segment) int64 {
	chunks, meta := b.chunks, b.meta
	key := func(e sortEntry) []byte {
		m := &meta[e.idx]
		return chunks[m.chunk][m.off : m.off+m.keyLen]
	}
	comps := radixSort(part, scratch)
	for lo := 0; lo < len(part); {
		hi := lo + 1
		first, same := key(part[lo]), true
		for ; hi < len(part) && part[hi].prefix == part[lo].prefix; hi++ {
			if same {
				comps++
				same = bytes.Equal(first, key(part[hi]))
			}
		}
		if !same {
			slices.SortFunc(part[lo:hi], func(x, y sortEntry) int {
				comps++
				if c := b.order.Cmp(key(x), key(y)); c != 0 {
					return c
				}
				return int(x.idx - y.idx) // stability: equal keys keep insertion order
			})
		}
		lo = hi
	}
	w := NewWriter(int(b.partBytes[p]) + segmentTrailerBytes)
	for _, e := range part {
		m := &meta[e.idx]
		rec := chunks[m.chunk][m.off : m.off+m.keyLen+m.valLen]
		w.Append(rec[:m.keyLen], rec[m.keyLen:])
	}
	segs[p] = w.Close()
	return comps
}

// radixCutoff is the range length at or below which radixSort finishes with
// an insertion sort: a 256-bucket counting pass costs more than that many
// integer steps.
const radixCutoff = 32

// radixSort stably sorts a by prefix — MSD, one byte per level, always on
// the highest byte in which the range's prefixes differ — using s (as long
// as a) as the scatter target, and returns the insertion-sort steps it
// spent. A range whose prefixes are all equal costs one pass and is left as
// it is: in the paper's small-record regime every partition is a handful of
// such ranges after one scatter.
func radixSort(a, s []sortEntry) (steps int64) {
	if len(a) < 2 {
		return 0
	}
	first, diff := a[0].prefix, uint64(0)
	for _, e := range a[1:] {
		diff |= e.prefix ^ first
	}
	if diff == 0 {
		return 0
	}
	if len(a) <= radixCutoff {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0; j-- {
				steps++
				if a[j-1].prefix <= a[j].prefix {
					break
				}
				a[j-1], a[j] = a[j], a[j-1]
			}
		}
		return steps
	}
	shift := uint(bits.Len64(diff)-1) &^ 7
	var count, next [256]int
	for _, e := range a {
		count[byte(e.prefix>>shift)]++
	}
	for d := 1; d < 256; d++ {
		next[d] = next[d-1] + count[d-1]
	}
	for _, e := range a {
		d := byte(e.prefix >> shift)
		s[next[d]] = e
		next[d]++
	}
	copy(a, s)
	for lo, d := 0, 0; d < 256; d++ {
		hi := lo + count[d]
		steps += radixSort(a[lo:hi], s[lo:hi])
		lo = hi
	}
	return steps
}
