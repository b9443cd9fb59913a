package kvbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mrmicro/internal/writable"
)

// recordMeta locates one buffered record: its key starts at off in chunk of
// its partition's chain, right behind the record's IFile header, and the
// value follows the key.
type recordMeta struct {
	partition      int32
	chunk, off     int32
	keyLen, valLen int32
}

// chain is one partition's share of the slab: chunks filled in arrival
// order, chunks[open] the one records go to. Chunks past open are empty ones
// kept from an earlier fill.
//
// Commit proves the chain ordered record by record (see prove) until a key
// sorts before its predecessor, which sets unordered and ends the proof:
// last is the newest record proven, as an index into meta, sum the checksum
// folded behind the records as they land, comps the comparisons the proof
// spent and marks the run marks it proved along the way. A chain still
// ordered at Spill is handed over as its segment, marks and all.
type chain struct {
	chunks    [][]byte
	open      int
	unordered bool
	last      int
	sum       chainSum
	comps     int64
	marks     []uint64
}

// SortBuffer is the map-side collection buffer (io.sort.mb): records
// accumulate in per-partition chains of chunks with metadata entries; Spill
// sorts them by (partition, key) using the key type's raw comparator and
// emits one IFile segment per partition.
//
// Every record is stored already framed as an IFile record (vint key length,
// vint value length, key, value) in its partition's chain, so a chain is a
// segment body wanting only its trailer. A byte lands once and is never
// moved by growth: a record never straddles chunks (the tail of a chunk too
// short for the next record stays unused, bar the room its trailer needs)
// and one larger than a chunk gets a chunk of its own. Records are
// serialised straight into the open chunk (Reserve/Commit; Add is the same
// two steps for bytes already serialised). A chain's chunks grow from a
// first size scaled to the buffer up to maxChunkBytes, so a small buffer's
// few records buy few bytes and a long chain is huge-page backed.
//
// The spill path is the map side's hottest loop, so it avoids the obvious
// costs. A partition whose keys arrived in order, which Commit proves while
// each record is still in cache (see prove), becomes its segment without a
// sort or a copy: the chain is handed over. The others are grouped by
// partition with a stable counting pass (no partition comparisons at all),
// each sorted as compact (prefix, index) entries on integers alone with the
// key bytes consulted only to resolve equal-prefix runs (see
// spillPartition), in parallel when the record count warrants it, and
// copied once into a segment sized from the exact bytes observed at Commit
// time. Chunks come from and go back to the segment pool; metadata arrays
// are recycled across SortBuffer instances via Release().
type SortBuffer struct {
	order      writable.KeyOrder
	partitions int
	capacity   int

	chains  []chain             // one per partition
	chunk0  int                 // a chain's first chunk size (firstChunkBytes)
	payload int                 // record bytes buffered, what Used charges beside the metadata
	lastLen int                 // size of the last committed record: Reserve's guess at the next
	lastHdr int                 // its IFile header size: the room Reserve leaves for the next one's
	resPart int                 // partition of the open reservation
	out     writable.DataOutput // the open reservation, positioned behind its header's room

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

// Chunks double from minChunkBytes up to maxChunkBytes: one transparent huge
// page, which makeBuf backs with a huge page, and 64 KiB of small pages past
// it. The margin holds the IFile headers of a partition whose records fill a
// whole number of huge pages, as fixed-size records dealt evenly do: without
// it such a chain ends in a chunk of a few KiB of headers and a huge page of
// slack.
const (
	minChunkBytes = 64 << 10
	maxChunkBytes = 2<<20 + 64<<10
)

// firstChunkBytes sizes a chain's first chunk: a quarter of the buffer's
// share per partition, rounded down to a power of two, within the chunk
// bounds. Each chunk after it doubles, so a partition's open chunk is never
// larger than what it already holds plus the first, and the open chunks
// together stay well under io.sort.mb.
func firstChunkBytes(capacity, partitions int) int {
	share := max(capacity/(4*partitions), 1)
	return min(max(1<<(bits.Len(uint(share))-1), minChunkBytes), maxChunkBytes)
}

// tailFor returns the open chunk once it has room for an n-byte framed
// record and the trailer that may follow it, moving on to the next chunk
// when it has not; the k-th chunk opened holds chunk0<<k bytes, at most
// maxChunkBytes. An empty chunk too small for the record stays for later
// records behind a new one that fits.
func (c *chain) tailFor(n, chunk0 int) []byte {
	need := n + segmentTrailerBytes
	for {
		if c.open < len(c.chunks) {
			ch := c.chunks[c.open]
			if need <= cap(ch)-len(ch) {
				return ch
			}
			if len(ch) > 0 {
				c.open++
				continue
			}
		}
		size := min(chunk0<<min(c.open, 6), maxChunkBytes) // six doublings take minChunkBytes past the cap
		c.chunks = slices.Insert(c.chunks, c.open, pooledBuf(max(size, need)))
	}
}

// chainSum folds a chain's checksum while Commit appends its records, a
// shuffleCRCChunk at a time, so the fold finds the bytes collect just wrote
// still in cache instead of reading the chain again at spill.
type chainSum struct {
	crc    uint32
	k, off int // folded so far: the chunks before k, and chunk k up to off
}

// to folds the chain up to offset end of chunk k, once a step has gathered.
func (s *chainSum) to(chunks [][]byte, k, end int) {
	for ; s.k < k; s.k, s.off = s.k+1, 0 {
		s.crc = UpdateCRC(s.crc, chunks[s.k][s.off:])
	}
	if end-s.off >= shuffleCRCChunk {
		s.crc = UpdateCRC(s.crc, chunks[k][s.off:end])
		s.off = end
	}
}

// handOver seals the chain as a segment of its records in arrival order and
// empties the chain: the chunks up to the open one become the segment's
// ranges, and the trailer goes into the open chunk, where tailFor always
// leaves room for it. Commit folded the checksum to within a
// shuffleCRCChunk of the end; the fold is finished here, so the chain is
// checksummed once.
func (c *chain) handOver(records int) *Segment {
	ranges := c.chunks[: c.open+1 : c.open+1]
	c.chunks, c.open = slices.Clone(c.chunks[c.open+1:]), 0
	last := &ranges[len(ranges)-1]
	*last = append(*last, 0xff, 0xff) // EOFMarker twice, as one-byte vints
	sum := c.sum
	sum.to(ranges, len(ranges)-1, 0)
	crc := UpdateCRC(sum.crc, (*last)[sum.off:])
	*last = binary.BigEndian.AppendUint32(*last, crc)
	return &Segment{data: ranges[0], rest: ranges[1:], marks: c.marks, records: records, verified: true}
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
		chains:     make([]chain, partitions),
		chunk0:     firstChunkBytes(capacityBytes, partitions),
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
	for p := range b.chains {
		for _, c := range b.chains[p].chunks {
			recycleBuf(c)
		}
		b.chains[p] = chain{}
	}
	if b.meta != nil {
		m, p := b.meta[:0], b.prefixes[:0]
		metaPool.Put(&m)
		prefixPool.Put(&p)
		b.meta, b.prefixes = nil, nil
	}
}

// headerLen is the size of an IFile record header: both lengths as vints.
func headerLen(keyLen, valLen int) int {
	if keyLen|valLen <= 127 { // two one-byte vints: lengths are never negative
		return 2
	}
	return writable.VLongEncodedLen(int64(keyLen)) + writable.VLongEncodedLen(int64(valLen))
}

// reserve opens a reservation for a record of partition p behind hdr bytes
// of room for its header, in a chunk with room for hdr+n bytes (at most a
// chunk's worth: a larger one gets its own chunk at Commit). An out-of-range
// p gets a reservation of its own, for Commit to refuse.
func (b *SortBuffer) reserve(p, hdr, n int) *writable.DataOutput {
	b.resPart = p
	if p < 0 || p >= b.partitions {
		b.out.ResetOn(nil)
		return &b.out
	}
	c := b.chains[p].tailFor(min(hdr+n, maxChunkBytes), b.chunk0)
	b.out.ResetOn(c[len(c)+hdr : len(c)+hdr])
	return &b.out
}

// Reserve opens a reservation for one record of the given partition: the
// caller writes the key and then the value to the returned output, which
// appends straight into the partition's open chunk, and calls Commit.
// Nothing is buffered until Commit; a second Reserve discards the first.
// Room is left for a header and a record as long as the previous ones, so
// same-sized records never move; any other is moved once, at Commit.
func (b *SortBuffer) Reserve(partition int) *writable.DataOutput {
	return b.reserve(partition, b.lastHdr, b.lastLen)
}

// Commit buffers the record written since Reserve, whose first keyLen bytes
// are the key, framing it with its IFile header. It returns false when the
// record does not fit (the buffer is unchanged; the caller must spill, then
// reserve and write the record again); a single record larger than the
// whole buffer is an error.
func (b *SortBuffer) Commit(keyLen int) (bool, error) {
	rec := b.out.Bytes()
	n, p := len(rec), b.resPart
	if p < 0 || p >= b.partitions {
		return false, fmt.Errorf("kvbuf: partition %d out of range [0,%d)", p, b.partitions)
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
	hdr := headerLen(keyLen, n-keyLen)
	ch := &b.chains[p]
	c := ch.tailFor(hdr+n, b.chunk0)
	off := len(c)
	c = c[:off+hdr+n]
	if n > 0 && &c[off+hdr] != &rec[0] {
		// The header's room was guessed wrong, or the record outgrew its
		// reservation and the output moved to a grown copy: move it into
		// place, once per record at most.
		copy(c[off+hdr:], rec)
	}
	if hdr == 2 {
		c[off], c[off+1] = byte(keyLen), byte(n-keyLen)
	} else {
		b.out.ResetOn(c[off:off])
		b.out.WriteVInt(int32(keyLen))
		b.out.WriteVInt(int32(n - keyLen))
	}
	ch.chunks[ch.open] = c
	b.payload += n
	b.lastLen, b.lastHdr = n, hdr
	b.meta = append(b.meta, recordMeta{
		partition: int32(p),
		chunk:     int32(ch.open), off: int32(off + hdr),
		keyLen: int32(keyLen), valLen: int32(n - keyLen),
	})
	b.prefixes = append(b.prefixes, b.order.Prefix(c[off+hdr:off+hdr+keyLen]))
	if !ch.unordered {
		b.prove(ch, len(b.meta)-1, int(b.partRecs[p]))
	}
	b.partRecs[p]++
	b.partBytes[p] += int64(hdr + n)
	return true, nil
}

// prove extends c's proof of order by its newest record, meta[i], the
// partition's record rec: its key must not sort before the one of the record
// before it, both still in cache. A prefix tie counts one comparison, as the
// spill's run check would, and a key byte-identical to its predecessor's is
// marked, with no comparator call. The checksum fold follows the records.
// Kept out of Commit, so a partition whose order broke pays one predictable
// branch per record.
func (b *SortBuffer) prove(c *chain, i, rec int) {
	m := &b.meta[i]
	if rec > 0 {
		l := &b.meta[c.last]
		pi, pl := b.prefixes[i], b.prefixes[c.last]
		k, lk := c.chunks[m.chunk][m.off:m.off+m.keyLen], c.chunks[l.chunk][l.off:l.off+l.keyLen]
		if pi == pl {
			c.comps++
		}
		if pi == pl && bytes.Equal(k, lk) {
			c.marks = setMark(c.marks, rec, 0)
		} else if b.order.Compare(k, pi, lk, pl) < 0 {
			c.unordered = true
			return
		}
	}
	c.last = i
	c.sum.to(c.chunks, int(m.chunk), int(m.off+m.keyLen+m.valLen))
}

// Add buffers one already-serialised record: Reserve, write, Commit. It
// returns false when the record does not fit (the caller must spill first);
// a single record larger than the whole buffer is an error.
func (b *SortBuffer) Add(partition int, key, val []byte) (bool, error) {
	out := b.reserve(partition, headerLen(len(key), len(val)), len(key)+len(val))
	out.Write(key)
	out.Write(val)
	return b.Commit(len(key))
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
// raw comparator calls alike; the radix passes compare nothing — plus, for
// a partition Commit proved ordered, one per record that tied its
// predecessor's prefix (for a partition of one key, the count its run check
// would make; for keys that differ, no more than a sort would count, so the
// count depends on arrival order): a deterministic work count for a given
// input, for benchmarks. The sort is stable: records with equal keys keep
// insertion order, so output is deterministic regardless of how many
// goroutines the spill used.
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
	for p := range b.chains {
		c := &b.chains[p]
		for i := range c.chunks {
			c.chunks[i] = c.chunks[i][:0]
		}
		*c = chain{chunks: c.chunks}
	}
	b.payload = 0
	b.meta = b.meta[:0]
	b.prefixes = b.prefixes[:0]
	for p := range b.partRecs {
		b.partRecs[p] = 0
		b.partBytes[p] = 0
	}
}

// spillPartition turns one partition into its IFile segment, returning the
// key comparisons spent (integer and byte-wise alike).
//
// A partition Commit proved ordered — every one whose records share one key,
// as in MR-AVG — is already what a stable sort produces: its chain is
// handed over, with the comparisons and the run marks the proof made. Any
// other is sorted and copied, record by framed record, into one segment.
//
// The entries arrive in insertion order. They are first sorted on
// (prefix, idx) by a stable radix sort on the prefix (radixSort, with
// scratch as its scatter target) — integers in a contiguous array, no slab
// access. That is already the final order wherever a prefix decides it, and
// also inside any equal-prefix run whose keys are all byte-equal (equal keys
// keep insertion order). One pass establishes that and copies the run at
// once: each record's key is compared with the run's first while the
// record is copied, and marked when they are byte-identical, so every key is
// read once, in cache. Only a run that turns out to hold distinct keys under
// one prefix is cut from the output, re-sorted with the raw comparator and
// copied again, its marks proven afresh between neighbours. Keys of unequal
// prefixes differ, so a run's first record is never marked and the marks are
// complete. The result is the order a stable full-comparator sort produces,
// for any input, while the slab is touched O(n) times instead of
// O(n log n). Under writable.ByComparator every prefix is zero: one pass
// finds nothing to scatter, then one run, sorted by comparator.
func (b *SortBuffer) spillPartition(p int, part, scratch []sortEntry, segs []*Segment) int64 {
	ch := &b.chains[p]
	if len(part) > 0 && !ch.unordered {
		segs[p] = ch.handOver(len(part))
		return ch.comps
	}
	chunks, meta := ch.chunks, b.meta
	key := func(e sortEntry) []byte {
		m := &meta[e.idx]
		return chunks[m.chunk][m.off : m.off+m.keyLen]
	}
	framed := func(m *recordMeta) []byte {
		start := int(m.off) - headerLen(int(m.keyLen), int(m.valLen))
		return chunks[m.chunk][start : m.off+m.keyLen+m.valLen]
	}
	comps := radixSort(part, scratch)
	w := NewWriter(int(b.partBytes[p]) + segmentTrailerBytes)
	w.markHint = len(part)
	for lo := 0; lo < len(part); {
		run := w.checkpoint()
		m := &meta[part[lo].idx]
		first := chunks[m.chunk][m.off : m.off+m.keyLen]
		w.appendFramed(framed(m))
		hi, same := lo+1, true
		for ; hi < len(part) && part[hi].prefix == part[lo].prefix; hi++ {
			if !same {
				continue // only the run's end is still wanted
			}
			comps++
			m := &meta[part[hi].idx]
			if same = bytes.Equal(first, chunks[m.chunk][m.off:m.off+m.keyLen]); same {
				w.appendFramed(framed(m))
				w.mark()
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
			w.cut(run)
			for i := lo; i < hi; i++ {
				w.appendFramed(framed(&meta[part[i].idx]))
				if i > lo && bytes.Equal(key(part[i]), key(part[i-1])) {
					w.mark()
				}
			}
		}
		lo = hi
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
