package kvbuf

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mrmicro/internal/writable"
)

// recordMeta locates one buffered record inside the slab, Hadoop's kvmeta
// equivalent.
type recordMeta struct {
	partition      int32
	keyOff, keyLen int32
	valOff, valLen int32
}

// SortBuffer is the map-side collection buffer (io.sort.mb): records
// accumulate in a byte slab with metadata entries; Spill sorts them by
// (partition, key) using the key type's raw comparator and emits one IFile
// segment per partition.
//
// The spill path is the map side's hottest loop, so it avoids the obvious
// costs: records are grouped by partition with a stable counting pass (no
// partition comparisons at all), each partition is sorted as compact
// (prefix, index) entries on integers alone with the key bytes consulted
// only to resolve equal-prefix runs (see spillPartition), partitions sort
// and serialize in parallel when the record count warrants it, and every
// per-partition IFile writer is sized from the exact bytes observed at Add
// time so segment buffers never regrow. Slab and metadata arrays are
// recycled across SortBuffer instances via Release().
type SortBuffer struct {
	cmp        writable.RawComparator
	prefix     writable.PrefixFunc
	partitions int
	capacity   int

	slab     []byte
	meta     []recordMeta
	prefixes []uint64 // parallel to meta; only filled when prefix != nil

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

// Pools recycling the large per-buffer arrays across SortBuffer instances
// (one per map attempt) and the per-spill sort index.
var (
	slabPool   = sync.Pool{New: func() any { return new([]byte) }}
	metaPool   = sync.Pool{New: func() any { return new([]recordMeta) }}
	prefixPool = sync.Pool{New: func() any { return new([]uint64) }}
	entryPool  = sync.Pool{New: func() any { return new([]sortEntry) }}
)

// sortEntry is one record in a spill's sort index: its order-preserving key
// prefix (zero for key types without an extractor) and its position in meta,
// which doubles as the insertion-order tie-break.
type sortEntry struct {
	prefix uint64
	idx    int32
}

// NewSortBuffer creates a buffer of capacityBytes for the given partition
// count, sorting keys with cmp.
func NewSortBuffer(capacityBytes, partitions int, cmp writable.RawComparator) *SortBuffer {
	if capacityBytes <= 0 || partitions <= 0 {
		panic("kvbuf: capacity and partitions must be positive")
	}
	if cmp == nil {
		panic("kvbuf: nil comparator")
	}
	return &SortBuffer{
		cmp:        cmp,
		partitions: partitions,
		capacity:   capacityBytes,
		slab:       (*slabPool.Get().(*[]byte))[:0],
		meta:       (*metaPool.Get().(*[]recordMeta))[:0],
		partRecs:   make([]int32, partitions),
		partBytes:  make([]int64, partitions),
	}
}

// SetPrefixFunc installs an order-preserving key-prefix extractor (see
// writable.PrefixExtractor); the sort then runs on the prefixes and calls
// the raw comparator only inside runs of equal prefixes whose keys differ.
// Must be called before the first Add.
func (b *SortBuffer) SetPrefixFunc(f writable.PrefixFunc) {
	if len(b.meta) > 0 {
		panic("kvbuf: SetPrefixFunc after Add")
	}
	b.prefix = f
	if f != nil && b.prefixes == nil {
		b.prefixes = (*prefixPool.Get().(*[]uint64))[:0]
	}
}

// Release returns the buffer's backing arrays to the shared pools. The
// buffer must not be used afterwards. Segments returned by earlier Spills
// stay valid: they own their bytes.
func (b *SortBuffer) Release() {
	if b.slab != nil {
		s := b.slab[:0]
		slabPool.Put(&s)
		b.slab = nil
	}
	if b.meta != nil {
		m := b.meta[:0]
		metaPool.Put(&m)
		b.meta = nil
	}
	if b.prefixes != nil {
		p := b.prefixes[:0]
		prefixPool.Put(&p)
		b.prefixes = nil
	}
}

// Add buffers one record. It returns false when the record does not fit
// (the caller must spill first); a single record larger than the whole
// buffer is an error.
func (b *SortBuffer) Add(partition int, key, val []byte) (bool, error) {
	if partition < 0 || partition >= b.partitions {
		return false, fmt.Errorf("kvbuf: partition %d out of range [0,%d)", partition, b.partitions)
	}
	sz := len(key) + len(val) + MetaBytesPerRecord
	if sz > b.capacity {
		return false, fmt.Errorf("kvbuf: record of %d bytes exceeds buffer capacity %d", sz, b.capacity)
	}
	if b.Used()+sz > b.capacity {
		return false, nil
	}
	ko := int32(len(b.slab))
	b.slab = append(b.slab, key...)
	vo := int32(len(b.slab))
	b.slab = append(b.slab, val...)
	b.meta = append(b.meta, recordMeta{
		partition: int32(partition),
		keyOff:    ko, keyLen: int32(len(key)),
		valOff: vo, valLen: int32(len(val)),
	})
	if b.prefix != nil {
		b.prefixes = append(b.prefixes, b.prefix(key))
	}
	b.partRecs[partition]++
	b.partBytes[partition] += int64(len(key)+len(val)) +
		int64(writable.VLongEncodedLen(int64(len(key)))+writable.VLongEncodedLen(int64(len(val))))
	return true, nil
}

// Used returns the occupied bytes including per-record metadata.
func (b *SortBuffer) Used() int { return len(b.slab) + len(b.meta)*MetaBytesPerRecord }

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
// performed — integer entry comparisons, equal-run byte checks and raw
// comparator calls alike — a deterministic work count for benchmarks. The
// sort is stable: records with equal keys keep insertion order, so output is
// deterministic regardless of how many goroutines the spill used.
func (b *SortBuffer) Spill() (segs []*Segment, comparisons int64) {
	n := len(b.meta)
	segs = make([]*Segment, b.partitions)

	// Stable counting pass: place each record's entry into its partition's
	// contiguous range. Partition grouping costs zero comparisons.
	entp := entryPool.Get().(*[]sortEntry)
	ent := *entp
	if cap(ent) < n {
		ent = make([]sortEntry, n)
	} else {
		ent = ent[:n]
	}
	starts := make([]int32, b.partitions+1)
	for p := 0; p < b.partitions; p++ {
		starts[p+1] = starts[p] + b.partRecs[p]
	}
	fill := make([]int32, b.partitions)
	copy(fill, starts[:b.partitions])
	for i := range b.meta {
		p := b.meta[i].partition
		e := sortEntry{idx: int32(i)}
		if b.prefix != nil {
			e.prefix = b.prefixes[i]
		}
		ent[fill[p]] = e
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
					comps += b.spillPartition(p, ent[starts[p]:starts[p+1]], segs)
				}
				total.Add(comps)
			}()
		}
		wg.Wait()
		comparisons = total.Load()
	} else {
		for p := 0; p < b.partitions; p++ {
			comparisons += b.spillPartition(p, ent[starts[p]:starts[p+1]], segs)
		}
	}

	*entp = ent
	entryPool.Put(entp)
	b.Reset()
	return segs, comparisons
}

// Reset empties the buffer for reuse without releasing its backing arrays
// (Spill resets implicitly; this covers discarding buffered records, e.g.
// when a background spill pipeline drains after an error).
func (b *SortBuffer) Reset() {
	b.slab = b.slab[:0]
	b.meta = b.meta[:0]
	if b.prefixes != nil {
		b.prefixes = b.prefixes[:0]
	}
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
// (prefix, idx) — integers in a contiguous array, no slab access. That is
// already the final order wherever a prefix decides it, and also inside any
// equal-prefix run whose keys are all byte-equal (equal keys keep insertion
// order), which one linear pass over the run establishes; only a run holding
// distinct keys under one prefix is re-sorted with the raw comparator. The
// result is the order a stable full-comparator sort produces, for any input,
// while the slab is touched O(n) times instead of O(n log n). A key type
// without an extractor has every prefix zero: one run, sorted by comparator.
func (b *SortBuffer) spillPartition(p int, part []sortEntry, segs []*Segment) int64 {
	var comps int64
	slab, meta := b.slab, b.meta
	key := func(e sortEntry) []byte {
		m := &meta[e.idx]
		return slab[m.keyOff : m.keyOff+m.keyLen]
	}
	if b.prefix != nil {
		slices.SortFunc(part, func(x, y sortEntry) int {
			comps++
			if x.prefix != y.prefix {
				if x.prefix < y.prefix {
					return -1
				}
				return 1
			}
			return int(x.idx - y.idx)
		})
	}
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
				if c := b.cmp(key(x), key(y)); c != 0 {
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
		w.Append(slab[m.keyOff:m.keyOff+m.keyLen], slab[m.valOff:m.valOff+m.valLen])
	}
	segs[p] = w.Close()
	return comps
}
