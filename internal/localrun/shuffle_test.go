package localrun

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// copyPhase runs one reduce task's production copy phase — streamShuffle's
// subscriber and its pool of pipelined segmentFetchers — against a board on
// which every map has already committed. The result holds one part per map,
// in map order.
func copyPhase(addr string, maps, reduce, copies int, bo faultinject.Backoff) (*shuffleResult, error) {
	board := newCompletionBoard(maps)
	for m := 0; m < maps; m++ {
		board.Announce(m, 0, addr)
	}
	tr := copyRunner("BytesWritable", maps, copies, func(tr *TaskRunner) { tr.backoff = bo })
	return newStreamShuffle(tr, reduce, board, &tally{}).run(context.Background())
}

// copyRunner is the slice of a job's task environment a copy phase reads:
// one split per map, the key comparator, the copier count and default
// fan-in, plus whatever mod sets (codec, backoff, memory budget).
func copyRunner(keyType string, maps, copies int, mod func(*TaskRunner)) *TaskRunner {
	order, err := writable.Order(keyType)
	if err != nil {
		panic(err)
	}
	tr := &TaskRunner{splits: make([]mapreduce.InputSplit, maps), order: order, copies: max(copies, 1), factor: 10}
	if mod != nil {
		mod(tr)
	}
	return tr
}

// bounded sets the merge fan-in and a reduce-side memory budget whose pool
// spills as soon as anything is admitted.
func bounded(factor int, budget int64) func(*TaskRunner) {
	return func(tr *TaskRunner) { tr.factor, tr.memBudget = factor, budget }
}

// slowstart sets the job's reduce slow-start fraction in its conf.
func slowstart(job *mapreduce.Job, frac float64) *mapreduce.Job {
	job.Conf.SetFloat(mapreduce.ConfSlowstartMaps, frac)
	return job
}

// TestMissingSegmentKeepsConnectionAlive pins the persistent-connection
// contract: a miss answers one pipelined request and the connection keeps
// serving the ones behind it.
func TestMissingSegmentKeepsConnectionAlive(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := kvbuf.NewWriter(64)
	w.Append([]byte("key"), []byte("value"))
	seg := w.Close()
	if err := s.Register(3, 0, seg); err != nil {
		t.Fatal(err)
	}

	c, err := dialShuffle(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Pipeline a miss ahead of a hit on the same connection.
	if err := c.request(9, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.request(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.response(false); !errors.Is(err, errSegmentMissing) {
		t.Fatalf("first response error = %v, want errSegmentMissing", err)
	}
	got, _, err := c.response(false)
	if err != nil {
		t.Fatalf("response after a miss on the same connection: %v", err)
	}
	if !bytes.Equal(got.Bytes(), seg.Bytes()) {
		t.Error("payload after a miss does not match the registered segment")
	}
}

// TestCopyPhasePipelined drives the production copy path: many maps over few
// persistent connections, every segment verified while streaming.
func TestCopyPhasePipelined(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 37 // not a multiple of the copier count
	want := make([]*kvbuf.Segment, maps)
	for m := 0; m < maps; m++ {
		w := kvbuf.NewWriter(64)
		w.Append([]byte(fmt.Sprintf("key-%02d", m)), []byte{byte(m)})
		want[m] = w.Close()
		if err := s.Register(m, 5, want[m]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := copyPhase(s.Addr(), maps, 5, 4, faultinject.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.cleanup()
	segs, wire, st := res.parts, res.wire, res.st
	for m := 0; m < maps; m++ {
		if segs[m] == nil {
			t.Fatalf("map %d segment missing", m)
		}
		if !bytes.Equal(segs[m].Bytes(), want[m].Bytes()) {
			t.Errorf("map %d payload mismatch", m)
		}
		if wire[m] != int64(want[m].Len()) {
			t.Errorf("map %d wire length = %d, want %d", m, wire[m], want[m].Len())
		}
	}
	if st.Failures != 0 || st.Retries != 0 || st.Slow != 0 {
		t.Errorf("clean fetch recorded recovery events: %+v", st)
	}
}

// TestCopyPhaseMissingFailsFast: one unregistered map among many must fail
// permanently (no backoff stalls) while the rest still fetch.
func TestCopyPhaseMissingFailsFast(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 8
	for m := 0; m < maps; m++ {
		if m == 4 {
			continue // the hole
		}
		w := kvbuf.NewWriter(64)
		w.Append([]byte("k"), []byte("v"))
		if err := s.Register(m, 0, w.Close()); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res, err := copyPhase(s.Addr(), maps, 0, 2,
		faultinject.Backoff{Attempts: 4, Base: 100 * time.Millisecond})
	if res != nil {
		defer res.cleanup()
	}
	if err == nil {
		t.Fatal("fetch with an unregistered segment succeeded")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("error not descriptive: %v", err)
	}
	// Permanent: no 100ms backoff sleeps may have happened.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("missing segment was retried (%v elapsed), want permanent failure", d)
	}
	for m := 0; m < maps; m++ {
		if res.fetched[m] != (m != 4) {
			t.Errorf("map %d fetched = %v: only the hole may be missing", m, res.fetched[m])
		}
	}
}

// flipServer speaks the shuffle wire protocol but damages what it sends:
// the first `flips` responses for each map go out with one body bit
// flipped, later ones intact — corruption on the wire itself, underneath
// anything the fault plan injects on the client side.
type flipServer struct {
	ln      net.Listener
	payload map[int][]byte // per map: the intact wire payload
	flips   int

	mu     sync.Mutex
	served map[int]int
}

func newFlipServer(t *testing.T, flips int, payload map[int][]byte) *flipServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flipServer{ln: ln, payload: payload, flips: flips, served: make(map[int]int)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *flipServer) serve(conn net.Conn) {
	defer conn.Close()
	var req [8]byte
	for {
		if _, err := io.ReadFull(conn, req[:]); err != nil {
			return
		}
		m := int(binary.BigEndian.Uint32(req[:4]))
		data := s.payload[m]
		s.mu.Lock()
		nth := s.served[m]
		s.served[m]++
		s.mu.Unlock()
		if nth < s.flips {
			data = bytes.Clone(data)
			data[len(data)/2] ^= 0x20
		}
		var hdr [9]byte
		binary.BigEndian.PutUint64(hdr[1:], uint64(len(data)))
		// An empty marks frame behind the payload: a peer that proved no runs.
		frame := new(kvbuf.Segment).AppendMarksFrame(nil)
		if _, err := conn.Write(append(append(hdr[:], data...), frame...)); err != nil {
			return
		}
	}
}

// TestBitFlippedPayloadRejectedAtFetch: a payload damaged on the wire is
// caught where it arrives — by the streaming checksum, or by the inflate and
// the checksum behind it — and fetched again on the same connection. What
// the copy phase hands the merge is intact and marked proven, so the merge's
// readers have nothing left to catch; a peer that only ever sends damaged
// bytes fails the fetch, never the merge.
func TestBitFlippedPayloadRejectedAtFetch(t *testing.T) {
	const maps = 6
	cmp, _ := writable.Comparator("BytesWritable")
	for _, compressed := range []bool{false, true} {
		raw := make(map[int][]byte)
		wire := make(map[int][]byte)
		for m := 0; m < maps; m++ {
			w := kvbuf.NewWriter(64)
			for i := 0; i < 200; i++ {
				w.Append([]byte(fmt.Sprintf("key-%02d-%03d", m, i)), bytes.Repeat([]byte{byte(m)}, 50+i))
			}
			seg := w.Close()
			raw[m] = seg.Bytes()
			wire[m] = seg.Bytes()
			if compressed {
				wire[m] = kvbuf.CompressSegmentWith(seg, kvbuf.Deflate).Bytes()
			}
		}
		bo := faultinject.Backoff{Attempts: 3, Base: 50 * time.Microsecond, Max: time.Millisecond}

		// Single-segment face: one flip, one retry, intact bytes.
		srv := newFlipServer(t, 1, wire)
		seg, wireLen, st, err := FetchMapOutput(srv.ln.Addr().String(), 2, 0, compressed, nil, bo)
		if err != nil {
			t.Fatalf("compressed=%v: fetch after one flipped response: %v", compressed, err)
		}
		if !bytes.Equal(seg.Bytes(), raw[2]) || wireLen != int64(len(wire[2])) {
			t.Errorf("compressed=%v: fetched segment differs from the intact one", compressed)
		}
		if st.Failures != 1 || st.Retries != 1 {
			t.Errorf("compressed=%v: stats %+v, want exactly one failure and one retry", compressed, st)
		}

		// Pipelined copy phase: every map's first response is damaged.
		srv = newFlipServer(t, 1, wire)
		board := newCompletionBoard(maps)
		for m := 0; m < maps; m++ {
			board.Announce(m, 0, srv.ln.Addr().String())
		}
		tr := copyRunner("BytesWritable", maps, 2, func(tr *TaskRunner) {
			tr.backoff = bo
			if compressed {
				tr.codec = kvbuf.Deflate
			}
		})
		res, err := newStreamShuffle(tr, 0, board, &tally{}).run(context.Background())
		if err != nil {
			t.Fatalf("compressed=%v: copy phase: %v", compressed, err)
		}
		if res.st.Failures != maps || res.st.Retries != maps {
			t.Errorf("compressed=%v: copy phase stats %+v, want %d failures and retries", compressed, res.st, maps)
		}
		for m, part := range res.parts {
			if !bytes.Equal(part.Bytes(), raw[m]) {
				t.Errorf("compressed=%v: map %d reached the merge damaged", compressed, m)
			}
		}
		merged := 0
		if _, err := kvbuf.MergeStream(cmp, res.parts, func(_, _ []byte) error { merged++; return nil }); err != nil || merged != maps*200 {
			t.Errorf("compressed=%v: merge over fetched parts: %d records, err %v", compressed, merged, err)
		}
		res.cleanup()

		// A peer that never sends intact bytes exhausts the retries at fetch.
		srv = newFlipServer(t, 1<<30, wire)
		seg, _, st, err = FetchMapOutput(srv.ln.Addr().String(), 1, 0, compressed, nil, bo)
		if seg != nil || !errors.Is(err, kvbuf.ErrCorruptSegment) {
			t.Errorf("compressed=%v: always-damaged peer: seg %v err %v, want ErrCorruptSegment", compressed, seg, err)
		}
		if st.Failures != 3 || st.Retries != 2 {
			t.Errorf("compressed=%v: always-damaged peer: stats %+v, want 3 failures, 2 retries", compressed, st)
		}
	}
}

// TestMultiPeerCopyPhase: the board names the server each map is served
// from, and the copy phase fetches every map from its own. Two servers each
// hold half the maps (and only that half, so a fetch from the wrong peer
// fails); the phase must return every map's segment in map order and merge
// to the same records, equal keys tie-broken by map, as the same maps served
// from one server — unbounded and through a 1-byte pool.
func TestMultiPeerCopyPhase(t *testing.T) {
	const maps = 10
	newServer := func() *shuffleServer {
		s, err := newShuffleServer(false, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	one, peers := newServer(), []*shuffleServer{newServer(), newServer()}
	segment := func(m int) *kvbuf.Segment {
		w := kvbuf.NewWriter(64)
		w.Append([]byte(fmt.Sprintf("key-%02d", m)), []byte("ok"))
		w.Append([]byte("shared"), []byte{'0' + byte(m)})
		return w.Close()
	}
	for m := 0; m < maps; m++ {
		if err := one.Register(m, 0, segment(m)); err != nil {
			t.Fatal(err)
		}
		if err := peers[m%2].Register(m, 0, segment(m)); err != nil {
			t.Fatal(err)
		}
	}
	cmp, _ := writable.Comparator("Text")
	phase := func(budget int64, addr func(m int) string) string {
		board := newCompletionBoard(maps)
		for m := 0; m < maps; m++ {
			board.Announce(m, 0, addr(m))
		}
		res, err := newStreamShuffle(copyRunner("Text", maps, 3, bounded(2, budget)), 0, board, &tally{}).run(context.Background())
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		defer res.cleanup()
		for m := 0; m < maps; m++ {
			if !res.fetched[m] {
				t.Errorf("budget %d: map %d not fetched", budget, m)
			}
		}
		for m, part := range res.parts {
			if k, _, ok, err := part.NewReader().Next(); err != nil || !ok || string(k) != fmt.Sprintf("key-%02d", m) {
				t.Errorf("budget %d: part %d starts with %q (ok=%v err=%v), want map %d's segment", budget, m, k, ok, err, m)
			}
		}
		return renderShuffleResult(t, cmp, res)
	}
	for _, budget := range []int64{0, 1} {
		want := phase(budget, func(int) string { return one.Addr() })
		if got := phase(budget, func(m int) string { return peers[m%2].Addr() }); got != want {
			t.Errorf("budget %d: two peers merge to\n%s\none server to\n%s", budget, got, want)
		}
	}
}
