package localrun

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"mrmicro/internal/kvbuf"
)

// segmentStore holds the map outputs a shuffle server serves, keyed by (map,
// partition). Two implementations, chosen by Options.DiskShuffle: memStore
// retains the registered buffers, diskStore (store.go) moves them to a spill
// file. Either keeps each segment's run-marks frame (kvbuf.AppendMarksFrame)
// behind it and sends the frame behind the payload. Safe for concurrent use.
type segmentStore interface {
	// put publishes seg, the newest registration for a key winning. The
	// store owns seg from here on.
	put(mapIdx, partition int, seg *kvbuf.Segment) error
	// send answers one request on conn with the ok header, the payload and
	// its marks frame, building the response in sc, the connection's
	// scratch; found=false, nothing written, when the key is not registered.
	send(conn net.Conn, sc *sendScratch, mapIdx, partition int) (found bool, err error)
	// dropMap withdraws every partition of mapIdx.
	dropMap(mapIdx int)
	// close releases what the store retains, once no connection is left.
	close()
}

// segKey indexes a store by (map, partition).
type segKey [2]int

// okHeader is the response header of a found segment: status 0, then the
// payload length.
func okHeader(n int64) (hdr [9]byte) {
	binary.BigEndian.PutUint64(hdr[1:], uint64(n))
	return hdr
}

// sendScratch is what a serving connection reuses across responses, so that
// answering allocates nothing: the header, and the gather list WriteTo consumes.
type sendScratch struct {
	hdr  [9]byte
	vec  [][]byte
	bufs net.Buffers
}

// memStore serves segments from their retained in-memory buffers.
type memStore struct {
	mu   sync.Mutex
	segs map[segKey]memSeg
}

// memSeg is one retained segment and its marks frame, encoded once at put.
type memSeg struct {
	seg   *kvbuf.Segment
	frame []byte
}

func (m *memStore) put(mapIdx, partition int, seg *kvbuf.Segment) error {
	ms := memSeg{seg: seg, frame: seg.AppendMarksFrame(nil)}
	m.mu.Lock()
	m.segs[segKey{mapIdx, partition}] = ms
	m.mu.Unlock()
	return nil
}

func (m *memStore) send(conn net.Conn, sc *sendScratch, mapIdx, partition int) (bool, error) {
	m.mu.Lock()
	ms, ok := m.segs[segKey{mapIdx, partition}]
	m.mu.Unlock()
	if !ok {
		return false, nil
	}
	// One writev per response: header, payload and marks frame leave in a
	// single syscall straight from the retained segment buffers — no
	// read-back copy, a handed-over chain gathered by the kernel — so the
	// client's pipelined reads never stall on a 9-byte header packet.
	seg := ms.seg
	sc.hdr = okHeader(int64(seg.Len()))
	sc.vec = append(seg.AppendRanges(append(sc.vec[:0], sc.hdr[:])), ms.frame)
	sc.bufs = sc.vec
	_, err := sc.bufs.WriteTo(conn)
	clear(sc.vec) // a connection outlives the segments it served
	if err != nil {
		return true, err
	}
	serveWritevBytes.Add(int64(seg.Len()))
	serveResponses.Add(1)
	return true, nil
}

func (m *memStore) dropMap(mapIdx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.segs {
		if k[0] == mapIdx {
			delete(m.segs, k)
		}
	}
}

// close hands the retained buffers to the segment pool for the next job's
// spills and fetches.
func (m *memStore) close() {
	for _, ms := range m.segs {
		ms.seg.Recycle()
	}
}

// diskStore is the disk-backed segmentStore: the real-Hadoop shape where map
// outputs live in spill files under mapred.local.dir and the shuffle servlet
// serves file ranges. Registered segments are appended to one spill file and
// their in-memory buffers recycled immediately, so a job's served bytes cost
// file-system cache, not heap — and the serving path can hand the range
// straight to the socket with sendfile instead of reading it back into user
// space first.
type diskStore struct {
	path string

	mu      sync.Mutex
	w       *os.File
	off     int64
	segs    map[segKey]diskSeg
	readers []*os.File // idle read handles, one in use per concurrent send
}

// diskSeg is one registered segment's location in the spill file: n payload
// bytes at off, then its marks frame of frame bytes. Regions are append-only
// and immutable once written, so readers need no lock beyond the entry
// lookup; a re-registered map output appends a fresh region and abandons the
// old one.
type diskSeg struct {
	off, n, frame int64
}

// newDiskStore makes the spill file in dir ("": the process temp dir).
func newDiskStore(dir string) (*diskStore, error) {
	f, err := os.CreateTemp(dir, "mrmicro-shuffle-*.spill")
	if err != nil {
		return nil, fmt.Errorf("localrun: shuffle spill file: %w", err)
	}
	return &diskStore{path: f.Name(), w: f, segs: make(map[segKey]diskSeg)}, nil
}

// put appends seg's bytes and its marks frame to the spill file and records
// the region, then recycles the in-memory buffer: the bytes are on disk.
func (d *diskStore) put(mapIdx, partition int, seg *kvbuf.Segment) error {
	frame := seg.AppendMarksFrame(nil)
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := seg.WriteTo(d.w)
	if err == nil {
		_, err = d.w.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("localrun: shuffle spill write: %w", err)
	}
	d.segs[segKey{mapIdx, partition}] = diskSeg{off: d.off, n: n, frame: int64(len(frame))}
	d.off += n + int64(len(frame))
	seg.Recycle()
	return nil
}

// send serves one region: a 9-byte header write, then the payload and its
// marks frame handed to the socket as a *io.LimitedReader over an *os.File —
// the shape
// (*net.TCPConn).ReadFrom turns into sendfile on platforms that have it, with
// io.Copy's buffer loop as the portable fallback. Each send in flight holds a
// read handle of its own, so concurrent sendfiles never race on a shared file
// offset.
func (d *diskStore) send(conn net.Conn, sc *sendScratch, mapIdx, partition int) (bool, error) {
	d.mu.Lock()
	ds, ok := d.segs[segKey{mapIdx, partition}]
	var rf *os.File
	if n := len(d.readers); ok && n > 0 {
		rf, d.readers = d.readers[n-1], d.readers[:n-1]
	}
	d.mu.Unlock()
	if !ok {
		return false, nil
	}
	if rf == nil {
		var err error
		if rf, err = os.Open(d.path); err != nil {
			return true, err
		}
	}
	defer func() {
		d.mu.Lock()
		d.readers = append(d.readers, rf)
		d.mu.Unlock()
	}()
	sc.hdr = okHeader(ds.n)
	if _, err := conn.Write(sc.hdr[:]); err != nil {
		return true, err
	}
	if _, err := rf.Seek(ds.off, io.SeekStart); err != nil {
		return true, err
	}
	lr := &io.LimitedReader{R: rf, N: ds.n + ds.frame}
	n, err := io.Copy(conn, lr)
	serveSendfileBytes.Add(min(n, ds.n)) // the payload's bytes: the frame is not shuffle data
	serveResponses.Add(1)
	if err != nil {
		return true, err
	}
	if lr.N != 0 {
		return true, fmt.Errorf("localrun: shuffle spill short read: %d bytes missing", lr.N)
	}
	return true, nil
}

func (d *diskStore) dropMap(mapIdx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k := range d.segs {
		if k[0] == mapIdx {
			delete(d.segs, k)
		}
	}
}

func (d *diskStore) close() {
	for _, rf := range d.readers {
		rf.Close()
	}
	d.w.Close()
	os.Remove(d.path)
}

// Copy accounting for the serving hot path, so the zero-copy claim is
// checkable: sendfile bytes never visit user space (the kernel splices the
// page-cache range to the socket), writev bytes leave directly from the
// retained segment buffer (one copy into the socket, none in between), and
// a read-then-write double copy would show up as neither.
var (
	serveSendfileBytes atomic.Int64
	serveWritevBytes   atomic.Int64
	serveResponses     atomic.Int64
)

// ServeStats is a snapshot of the process-wide shuffle serving counters.
type ServeStats struct {
	// SendfileBytes were served kernel-side from the disk store's spill
	// file via sendfile — zero user-space copies.
	SendfileBytes int64
	// WritevBytes were served from retained in-memory segment buffers via
	// one writev — no intermediate read-back copy.
	WritevBytes int64
	// Neither counts the run-marks frames sent behind the payloads.
	// Responses counts served segments across both paths.
	Responses int64
}

// ShuffleServeStats returns the cumulative serving counters.
func ShuffleServeStats() ServeStats {
	return ServeStats{
		SendfileBytes: serveSendfileBytes.Load(),
		WritevBytes:   serveWritevBytes.Load(),
		Responses:     serveResponses.Load(),
	}
}

// ResetShuffleServeStats zeroes the serving counters (benchmark setup).
func ResetShuffleServeStats() {
	serveSendfileBytes.Store(0)
	serveWritevBytes.Store(0)
	serveResponses.Store(0)
}
