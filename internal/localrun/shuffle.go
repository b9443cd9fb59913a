// Package localrun executes MapReduce jobs for real, in process: real
// mapper/reducer code over real bytes, the kvbuf sort/spill/merge machinery,
// and a genuine TCP shuffle on the loopback interface (the moral equivalent
// of Hadoop's HTTP shuffle servlet). It is the correctness anchor for the
// suite: what the simulated engines time, localrun actually does.
//
// The job Conf is the one source of every Hadoop knob: TaskRunner resolves
// and validates it once per job, and Options carries only what a conf cannot
// (parallelism of this host, fault plan, backoff, serving store).
package localrun

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
)

// ErrServerClosed is returned by Register once the shuffle server has shut
// down: a late map attempt must not publish output nobody can fetch.
var ErrServerClosed = errors.New("localrun: shuffle server closed")

// shuffleServer serves completed map-output partitions over TCP.
//
// Wire protocol (binary, big-endian): request = uint32 map index, uint32
// partition; response = 1 status byte (0 = ok) then uint64 payload length,
// the segment bytes (raw IFile, or the kvbuf compressed wire format when the
// job compresses map output) and the segment's run-marks frame
// (kvbuf.AppendMarksFrame: which records repeat the key before them, as the
// map side proved while it sorted and merged). The payload length counts the
// segment alone, and so do REDUCE_SHUFFLE_BYTES and the serving counters: the
// frame is not shuffle data. A frame whose checksum fails may carry a
// damaged word count, so the stream behind it cannot be trusted: the reduce
// drops the connection and fetches the segment again. A miss is the status
// byte 1 alone. Connections are persistent: a client may pipeline any
// number of requests on one connection and responses come back in request
// order, so per-segment dial/teardown never touches the copy phase's
// critical path.
//
// Serving never read-then-writes a segment: the in-memory store sends a
// segment in a single writev straight from its retained buffer, and the
// disk-backed store hands the payload kernel-to-socket via sendfile.
// ShuffleServeStats accounts both paths.
type shuffleServer struct {
	ln    net.Listener
	store segmentStore

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // live connections, severed by Close
	wg     sync.WaitGroup
}

// newShuffleServer starts a server; a disk-backed one spills into dir.
func newShuffleServer(diskBacked bool, dir string) (*shuffleServer, error) {
	var store segmentStore = &memStore{segs: make(map[segKey]memSeg)}
	if diskBacked {
		d, err := newDiskStore(dir)
		if err != nil {
			return nil, err
		}
		store = d
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.close()
		return nil, fmt.Errorf("localrun: shuffle listener: %w", err)
	}
	s := &shuffleServer{ln: ln, store: store, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dialable address.
func (s *shuffleServer) Addr() string { return s.ln.Addr().String() }

// Register publishes a map task's output for one partition. The newest
// registration wins, which serves exactly one case: a failed attempt's
// partial registration — never announced, so never fetched — is overwritten
// by the attempt that goes on to commit. Registering on a closed server is an
// error, never a silent mutation. The store owns the segment afterwards (the
// disk-backed one recycles its buffer once the bytes are in the spill file).
func (s *shuffleServer) Register(mapIdx, partition int, seg *kvbuf.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: cannot register map %d partition %d", ErrServerClosed, mapIdx, partition)
	}
	return s.store.put(mapIdx, partition, seg)
}

func (s *shuffleServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed { // accepted as Close shut the listener
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(conn)
		}()
	}
}

func (s *shuffleServer) serve(conn net.Conn) {
	var req [8]byte
	sc := new(sendScratch)
	for {
		if _, err := io.ReadFull(conn, req[:]); err != nil {
			return // client done
		}
		mapIdx := int(binary.BigEndian.Uint32(req[:4]))
		part := int(binary.BigEndian.Uint32(req[4:]))
		found, err := s.store.send(conn, sc, mapIdx, part)
		if err != nil {
			return
		}
		if !found {
			// A miss answers one request; it must not kill the connection,
			// which may carry pipelined requests for segments that do exist.
			if _, err := conn.Write([]byte{1}); err != nil {
				return
			}
		}
	}
}

// Close shuts the listener, severs every connection — a peer mid-fetch sees
// the host gone, as it does when a worker process dies — waits for their
// handlers, and closes the store.
func (s *shuffleServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	s.store.close()
}

// fetchPipelineDepth bounds how many segment requests a fetcher keeps in
// flight on one connection. Requests are 8 bytes, so the bound exists to
// limit how much response data the server can commit to one slow client,
// not to protect the request path.
const fetchPipelineDepth = 8

// errSegmentMissing marks a status-1 response; callers translate it into a
// permanent, map-specific error.
var errSegmentMissing = errors.New("localrun: segment not found on server")

// shuffleConn is one persistent client connection to a shuffle server.
type shuffleConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialShuffle(addr string) (*shuffleConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("localrun: shuffle dial: %w", err)
	}
	return &shuffleConn{conn: conn, br: bufio.NewReaderSize(conn, 4<<10)}, nil
}

func (c *shuffleConn) Close() {
	if c != nil {
		c.conn.Close()
	}
}

// request puts one segment request on the wire; the matching response
// arrives in request order behind any already in flight.
func (c *shuffleConn) request(mapIdx, partition int) error {
	var req [8]byte
	binary.BigEndian.PutUint32(req[:4], uint32(mapIdx))
	binary.BigEndian.PutUint32(req[4:], uint32(partition))
	if _, err := c.conn.Write(req[:]); err != nil {
		return fmt.Errorf("localrun: shuffle request: %w", err)
	}
	return nil
}

// header reads the next pipelined response's status byte and payload length.
func (c *shuffleConn) header() (int, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(c.br, hdr[:1]); err != nil {
		return 0, fmt.Errorf("localrun: shuffle status: %w", err)
	}
	if hdr[0] != 0 {
		return 0, errSegmentMissing
	}
	if _, err := io.ReadFull(c.br, hdr[1:]); err != nil {
		return 0, fmt.Errorf("localrun: shuffle length: %w", err)
	}
	return int(binary.BigEndian.Uint64(hdr[1:])), nil
}

// response reads the next pipelined response as a segment: a raw IFile
// payload streams through the CRC as it is read off the socket, a compressed
// one inflates straight off the socket into an exact-size raw segment with
// the CRC folded over the decompressed bytes — the compressed payload is
// never materialized. Either way the segment comes back proven, in a pooled
// buffer its Recycle returns, and nothing scans it again: its run marks are
// the ones the marks frame behind it carries. A kvbuf.ErrCorruptSegment
// return means the payload and its frame were consumed and the connection is
// still in sync (retry without reconnecting); other errors, a damaged frame
// among them, are connection-level. wire is the payload's on-the-wire byte
// count.
func (c *shuffleConn) response(compressed bool) (seg *kvbuf.Segment, wire int64, err error) {
	n, err := c.header()
	if err != nil {
		return nil, 0, err
	}
	seg, err = readPayload(c.br, n, compressed)
	if err != nil && !errors.Is(err, kvbuf.ErrCorruptSegment) {
		return nil, 0, fmt.Errorf("localrun: shuffle payload: %w", err)
	}
	// The payload was consumed, damaged or not: so must its frame be.
	if ferr := kvbuf.ReadMarksFrame(c.br, seg); ferr != nil {
		if seg != nil {
			seg.Recycle()
		}
		return nil, 0, fmt.Errorf("localrun: shuffle marks: %w", ferr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("localrun: shuffle payload: %w", err)
	}
	return seg, int64(n), nil
}

// readPayload decodes one n-byte payload off r: the one decode path of
// every fetched byte, clean or mangled.
func readPayload(r io.Reader, n int, compressed bool) (*kvbuf.Segment, error) {
	if compressed {
		return kvbuf.ReadCompressedSegment(r, n)
	}
	return kvbuf.ReadSegment(r, n)
}

// truncatedResponse reads the next pipelined response's payload as it is on
// the wire and decodes it cut short, as an injected truncation fault
// mangles it; wire is the payload's full on-the-wire byte count.
func (c *shuffleConn) truncatedResponse(compressed bool) (seg *kvbuf.Segment, wire int64, err error) {
	n, err := c.header()
	if err != nil {
		return nil, 0, err
	}
	data := kvbuf.GrabBuf(n)
	defer kvbuf.RecycleBuf(data)
	if _, err := io.ReadFull(c.br, data); err != nil {
		return nil, 0, fmt.Errorf("localrun: shuffle payload: %w", err)
	}
	if err := kvbuf.ReadMarksFrame(c.br, nil); err != nil {
		return nil, 0, fmt.Errorf("localrun: shuffle marks: %w", err)
	}
	if n > 0 {
		data = data[:n-(1+n/16)]
	}
	seg, err = readPayload(bytes.NewReader(data), len(data), compressed)
	return seg, int64(n), err
}

// missingSegmentErr is permanent: a map is announced only after all its
// partitions are registered, so a segment missing for an announced map will
// never appear; fail fast instead of retrying.
func missingSegmentErr(mapIdx, partition int) error {
	return faultinject.Permanent(fmt.Errorf("localrun: map %d partition %d not found on server", mapIdx, partition))
}

// FetchError reports a map output a reduce task could not fetch — retries
// ran out, or the failure was permanent — and the shuffle server it was
// asked of, so a distributed reduce can report that map's output lost.
type FetchError struct {
	Map, Reduce int
	Peer        string
	Err         error
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("localrun: fetch map %d -> reduce %d from %s: %v", e.Map, e.Reduce, e.Peer, e.Err)
}

func (e *FetchError) Unwrap() error { return e.Err }

// segmentFetcher drains one reduce task's share of map outputs from one peer
// through a single persistent shuffle connection: the Hadoop copier thread's
// connection to one tracker. The happy path pipelines requests up to
// fetchPipelineDepth deep; segments whose first attempt failed are retried
// with backoff, re-dialing first when the failure killed the connection.
// Injected faults (dropped connections, truncated payloads, slow peers) enter
// here — the same code path that recovers from a genuinely flaky peer.
type segmentFetcher struct {
	addr       string
	reduce     int
	compressed bool
	plan       *faultinject.Plan
	bo         faultinject.Backoff
	conn       *shuffleConn
	st         *FetchStats
}

func (f *segmentFetcher) seed(mapIdx int) int64 {
	var seed int64
	if f.plan != nil {
		seed = f.plan.Seed
	}
	return seed ^ (int64(mapIdx)*1000003 + int64(f.reduce))
}

func (f *segmentFetcher) closeConn() {
	f.conn.Close()
	f.conn = nil
}

// receive reads the next pipelined response, for map mapIdx. A clean attempt
// streams through response. An attempt with an injected truncation fault
// needs real bytes to mangle: its payload is buffered, cut short, and decoded
// by the same decoder from the cut bytes, which rejects it as a corrupt
// segment — proving the corrupt-stream retry path. The rejection also
// carries ErrInjected: the checksum caught it, a fault caused it.
func (f *segmentFetcher) receive(mapIdx int, truncate bool) (*kvbuf.Segment, int64, error) {
	if !truncate {
		return f.conn.response(f.compressed)
	}
	seg, wire, err := f.conn.truncatedResponse(f.compressed)
	if errors.Is(err, kvbuf.ErrCorruptSegment) {
		return nil, 0, fmt.Errorf("localrun: shuffle map %d -> reduce %d: %w: %w", mapIdx, f.reduce, err, faultinject.ErrInjected)
	}
	return seg, wire, err
}

// send rolls one fetch attempt against the fault plan and, unless it drops,
// puts the request on the persistent connection, dialing first if there is
// none; truncate is the fault its response must suffer. A failed dial or
// request leaves no connection; a drop leaves the connection as it was.
func (f *segmentFetcher) send(mapIdx, attempt int) (truncate bool, err error) {
	fault := faultinject.FetchOK
	if f.plan != nil {
		fault = f.plan.Fetch(f.reduce, mapIdx, attempt)
	}
	switch fault {
	case faultinject.FetchDrop:
		return false, faultinject.Errorf("localrun: shuffle map %d -> reduce %d attempt %d: connection dropped", mapIdx, f.reduce, attempt)
	case faultinject.FetchSlow:
		f.st.Slow++
		time.Sleep(f.plan.Slowness())
	}
	if f.conn == nil {
		if f.conn, err = dialShuffle(f.addr); err != nil {
			return false, err
		}
	}
	if err := f.conn.request(mapIdx, f.reduce); err != nil {
		f.closeConn()
		return false, err
	}
	return fault == faultinject.FetchTruncate, nil
}

// fetchOne performs a single unpipelined fetch attempt for one map output
// on the persistent connection, reconnecting first if an earlier failure
// killed it: the retry pass's workhorse.
func (f *segmentFetcher) fetchOne(mapIdx, attempt int) (*kvbuf.Segment, int64, error) {
	truncate, err := f.send(mapIdx, attempt)
	if err != nil {
		f.st.Failures++
		// An injected drop takes the TCP connection with it: the retry
		// that follows must re-dial, exercising reconnect for real.
		f.closeConn()
		return nil, 0, err
	}
	seg, wire, err := f.receive(mapIdx, truncate)
	if err != nil {
		f.st.Failures++
		if errors.Is(err, errSegmentMissing) {
			return nil, 0, missingSegmentErr(mapIdx, f.reduce)
		}
		if !errors.Is(err, kvbuf.ErrCorruptSegment) {
			f.closeConn() // a half-read response desyncs the stream
		}
		return nil, 0, err
	}
	return seg, wire, nil
}

// inflightFetch is one pipelined request awaiting its response.
type inflightFetch struct {
	mapIdx   int
	truncate bool // this attempt's injected truncation fault
}

// failedFetch is a map output whose first attempt failed; err feeds the
// retry loop as attempt zero's outcome.
type failedFetch struct {
	mapIdx int
	err    error
}

// run fetches the given map outputs, delivering each fetched segment (and
// its on-the-wire byte count) through store. First attempts ride the
// pipelined window; failures fall through to per-segment backoff retries.
// One segment's exhausted retries do not abort the rest: the first
// *FetchError is returned after every segment has had its chance.
func (f *segmentFetcher) run(maps []int, store func(mapIdx int, seg *kvbuf.Segment, n int64)) error {
	var retry []failedFetch
	fail := func(mapIdx int, err error) {
		f.st.Failures++
		retry = append(retry, failedFetch{mapIdx: mapIdx, err: err})
	}

	var inflight []inflightFetch
	next := 0
	for next < len(maps) || len(inflight) > 0 {
		// Fill the request window.
		for next < len(maps) && len(inflight) < fetchPipelineDepth {
			m := maps[next]
			next++
			truncate, err := f.send(m, 0)
			if err != nil {
				fail(m, err)
				if f.conn == nil {
					// The pipe died: responses for everything in flight
					// are lost with it. All of them ride the retry path,
					// which reconnects.
					for _, q := range inflight {
						fail(q.mapIdx, err)
					}
					inflight = inflight[:0]
				}
				continue
			}
			inflight = append(inflight, inflightFetch{mapIdx: m, truncate: truncate})
		}
		if len(inflight) == 0 {
			continue
		}
		// Drain the oldest response.
		req := inflight[0]
		seg, wire, err := f.receive(req.mapIdx, req.truncate)
		switch {
		case err == nil:
			inflight = append(inflight[:0], inflight[1:]...)
			store(req.mapIdx, seg, wire)
		case errors.Is(err, errSegmentMissing):
			// The server answered and keeps serving the rest of the
			// pipeline; only this segment is (permanently) failed.
			inflight = append(inflight[:0], inflight[1:]...)
			fail(req.mapIdx, missingSegmentErr(req.mapIdx, f.reduce))
		case errors.Is(err, kvbuf.ErrCorruptSegment):
			// The payload was fully consumed (or drained); the connection
			// is still in sync and only this segment retries.
			inflight = append(inflight[:0], inflight[1:]...)
			fail(req.mapIdx, err)
		default:
			// Connection-level failure: every in-flight response is lost.
			for _, q := range inflight {
				fail(q.mapIdx, err)
			}
			inflight = inflight[:0]
			f.closeConn()
		}
	}

	// Retry pass: each failed segment replays its backoff schedule, with
	// the recorded first-attempt error standing in for attempt zero (its
	// fault roll and failure count already happened above).
	var firstErr error
	for _, fl := range retry {
		attempt0 := fl.err
		m := fl.mapIdx
		err := f.bo.Retry(f.seed(m), func(attempt int) error {
			if attempt == 0 {
				return attempt0
			}
			f.st.Retries++
			seg, n, err := f.fetchOne(m, attempt)
			if err != nil {
				return err
			}
			store(m, seg, n)
			return nil
		})
		if err != nil && firstErr == nil {
			firstErr = &FetchError{Map: m, Reduce: f.reduce, Peer: f.addr, Err: err}
		}
	}
	return firstErr
}

// errShuffleAborted reports a copy phase cut short because the job ended
// elsewhere: the reduce attempt gives up waiting for announcements that
// will never come.
var errShuffleAborted = errors.New("localrun: shuffle aborted: job canceled")

// shuffleResult is one reduce task's completed overlapped copy phase.
type shuffleResult struct {
	// parts holds the merge inputs: every map's fetched segment, in
	// ascending map-index order, so the final merge tie-breaks equal keys by
	// map index whatever order the fetches landed in — the overlap is
	// invisible in the output bytes.
	parts   []*kvbuf.Segment
	wire    []int64 // per original map: payload bytes moved for its winning fetch
	fetched []bool  // per original map: its segment arrived
	st      FetchStats

	// inputs, when non-nil, replaces parts: the bounded pool's mixed
	// memory+disk merge sources in map order (reduceOverInputs consumes
	// them). cleanup releases everything the copy phase still owns —
	// pooled segments, disk runs, the scratch dir — and must run once the
	// reduce pass no longer references the merge inputs.
	inputs  []mergeInput
	cleanup func()
}

// streamShuffle coordinates one reduce task's overlapped copy phase, on both
// real engines: a subscriber turns completion-board announcements into fetch
// work and tr.copies fetcher goroutines drain it over persistent pipelined
// connections (segmentFetcher), one per peer a copier has fetched from. A map
// is announced once, so each map is queued, fetched and stored once.
// Unbounded, the phase hands the final merge its numMaps fetched segments in
// map order; with tr.memBudget set, the bounded pool's background spiller
// (mergepool.go) is the one reduce-side background merge.
type streamShuffle struct {
	tr      *TaskRunner
	reduce  int
	numMaps int
	copies  int
	board   *completionBoard
	tm      *tally // this attempt's merge pipeline stats

	// midShuffle, when set, runs once: when half the segments (rounded
	// down) are stored, or before the first fetch when that is none.
	midShuffle func()

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int    // announced maps awaiting dispatch
	peer     []string // per map: the shuffle server serving it; "" until announced
	fetched  []bool   // per map: its segment was stored
	nFetched int
	segs     []*kvbuf.Segment
	wire     []int64
	sts      []FetchStats
	err      error
	aborted  bool

	// Bounded-pool state (tr.memBudget > 0): poolUsed charges every admitted
	// segment byte (including bytes held by an in-flight spill merge),
	// admitWaiters counts copiers blocked on admission, spilling serializes
	// background spills (mergeWG waits for the one in flight), runs are the
	// recorded on-disk runs, and rdir owns every run file made.
	poolUsed     int64
	admitWaiters int
	spilling     bool
	mergeWG      sync.WaitGroup
	runs         []*diskRun
	rdir         runDir
}

// newStreamShuffle prepares reduce task `reduce`'s copy phase against the
// maps announced on board.
func newStreamShuffle(tr *TaskRunner, reduce int, board *completionBoard, tm *tally) *streamShuffle {
	numMaps := len(tr.splits)
	copies := min(tr.copies, numMaps)
	ss := &streamShuffle{
		tr:      tr,
		reduce:  reduce,
		numMaps: numMaps,
		copies:  copies,
		board:   board,
		tm:      tm,
		peer:    make([]string, numMaps),
		fetched: make([]bool, numMaps),
		segs:    make([]*kvbuf.Segment, numMaps),
		wire:    make([]int64, numMaps),
		sts:     make([]FetchStats, copies),
	}
	ss.cond = sync.NewCond(&ss.mu)
	return ss
}

// run drives the copy phase to completion: every map announced and fetched,
// or the first error, or ctx's end (the job failed elsewhere or was
// cancelled), which aborts every wait.
func (ss *streamShuffle) run(ctx context.Context) (*shuffleResult, error) {
	if ss.midShuffle != nil && ss.numMaps/2 == 0 {
		ss.midShuffle()
	}
	defer context.AfterFunc(ctx, func() {
		ss.mu.Lock()
		ss.aborted = true
		ss.cond.Broadcast()
		ss.mu.Unlock()
	})()
	sub, endSub := context.WithCancel(ctx)
	defer endSub()
	go ss.subscribe(sub)

	var wg sync.WaitGroup
	for w := 0; w < ss.copies; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ss.worker(w)
		}(w)
	}
	wg.Wait()
	ss.mergeWG.Wait()
	return ss.finalize()
}

// subscribe queues each map's fetch the first time the board shows it
// committed, until ctx (the copy phase's) ends.
func (ss *streamShuffle) subscribe(ctx context.Context) {
	snap := make([]completion, ss.numMaps)
	for {
		next := ss.board.poll(snap)
		ss.mu.Lock()
		for m, c := range snap {
			if c.attempt >= 0 && ss.peer[m] == "" {
				ss.peer[m] = c.addr
				ss.queue = append(ss.queue, m)
			}
		}
		ss.cond.Broadcast()
		ss.mu.Unlock()
		select {
		case <-next:
		case <-ctx.Done():
			return
		}
	}
}

// allFetched reports whether every map's segment has been stored. Caller
// holds ss.mu.
func (ss *streamShuffle) allFetched() bool { return ss.nFetched == ss.numMaps }

// nextBatch blocks until fetch work is available, handing out up to a
// pipeline window's worth of queued maps served by one peer — the oldest
// queued map's — or returns nil when the copy phase is over (complete,
// failed, or aborted).
func (ss *streamShuffle) nextBatch() (peer string, batch []int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for {
		if ss.err != nil || ss.aborted || ss.allFetched() {
			return "", nil
		}
		if len(ss.queue) > 0 {
			break
		}
		ss.cond.Wait()
	}
	peer = ss.peer[ss.queue[0]]
	batch = make([]int, 0, min(len(ss.queue), fetchPipelineDepth))
	rest := ss.queue[:0]
	for _, m := range ss.queue {
		if len(batch) < fetchPipelineDepth && ss.peer[m] == peer {
			batch = append(batch, m)
		} else {
			rest = append(rest, m)
		}
	}
	ss.queue = rest
	return peer, batch
}

// worker is one copier thread: it keeps a persistent connection to each peer
// it has fetched from and drains batches through the pipelined fetcher until
// the phase ends.
func (ss *streamShuffle) worker(w int) {
	fetchers := make(map[string]*segmentFetcher)
	defer func() {
		for _, f := range fetchers {
			f.closeConn()
		}
	}()
	for {
		peer, batch := ss.nextBatch()
		if batch == nil {
			return
		}
		f := fetchers[peer]
		if f == nil {
			f = &segmentFetcher{addr: peer, reduce: ss.reduce, compressed: ss.tr.codec != nil, plan: ss.tr.plan, bo: ss.tr.backoff, st: &ss.sts[w]}
			fetchers[peer] = f
		}
		ss.batchDone(f.run(batch, ss.store))
	}
}

// store records one fetched segment, first waiting for room in the bounded
// pool when there is one.
func (ss *streamShuffle) store(m int, seg *kvbuf.Segment, n int64) {
	ss.mu.Lock()
	if ss.tr.memBudget > 0 && !ss.admitLocked(int64(seg.Len())) {
		// The phase is ending (error or abort): drop the segment rather
		// than block forever on a pool nobody will drain.
		ss.mu.Unlock()
		seg.Recycle()
		return
	}
	ss.segs[m] = seg
	ss.wire[m] = n
	ss.fetched[m] = true
	ss.nFetched++
	half := ss.nFetched == ss.numMaps/2
	ss.maybeSpillLocked()
	ss.mu.Unlock()
	if half && ss.midShuffle != nil {
		ss.midShuffle()
	}
}

// batchDone records a finished batch's outcome and wakes the other copiers:
// the phase may just have completed or failed.
func (ss *streamShuffle) batchDone(err error) {
	ss.mu.Lock()
	if err != nil && ss.err == nil {
		ss.err = err
	}
	ss.cond.Broadcast()
	ss.mu.Unlock()
}

// finalize publishes the copy phase's result: the fetched segments in map
// order, or the bounded pool's mixed memory+disk inputs.
func (ss *streamShuffle) finalize() (*shuffleResult, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	res := &shuffleResult{
		wire:    ss.wire,
		fetched: ss.fetched,
		cleanup: ss.releaseAll,
	}
	for _, st := range ss.sts {
		res.st.add(st)
	}
	if ss.err != nil {
		return res, ss.err
	}
	if ss.aborted && !ss.allFetched() {
		return res, errShuffleAborted
	}
	if len(ss.runs) > 0 {
		inputs, err := ss.boundedInputsLocked()
		if err != nil {
			return res, err
		}
		res.inputs = inputs
		return res, nil
	}
	res.parts = ss.segs
	return res, nil
}
