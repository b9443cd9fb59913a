package localrun

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/writable"
)

// copyPhase runs one reduce task's production copy phase — streamShuffle's
// subscriber and its pool of pipelined segmentFetchers — against a board on
// which every map has already committed. With no merge factor set the result
// holds one part per map, in map order.
func copyPhase(addr string, maps, reduce, copies int, bo faultinject.Backoff) (*shuffleResult, error) {
	board := newCompletionBoard(maps)
	for m := 0; m < maps; m++ {
		board.Announce(m, 0)
	}
	cmp, err := writable.Comparator("BytesWritable")
	if err != nil {
		return nil, err
	}
	return newStreamShuffle(addr, maps, reduce, copies, false, nil, bo, board, cmp, shuffleTuning{}).run(nil)
}

// TestMissingSegmentKeepsConnectionAlive pins the persistent-connection
// contract: a miss answers one pipelined request and the connection keeps
// serving the ones behind it.
func TestMissingSegmentKeepsConnectionAlive(t *testing.T) {
	s, err := newShuffleServer(false)
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
	if _, err := c.response(true); !errors.Is(err, errSegmentMissing) {
		t.Fatalf("first response error = %v, want errSegmentMissing", err)
	}
	data, err := c.response(true)
	if err != nil {
		t.Fatalf("response after a miss on the same connection: %v", err)
	}
	if !bytes.Equal(data, seg.Bytes()) {
		t.Error("payload after a miss does not match the registered segment")
	}
}

// TestCopyPhasePipelined drives the production copy path: many maps over few
// persistent connections, every segment verified while streaming.
func TestCopyPhasePipelined(t *testing.T) {
	s, err := newShuffleServer(false)
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
	if st.failures != 0 || st.retries != 0 || st.slow != 0 {
		t.Errorf("clean fetch recorded recovery events: %+v", st)
	}
}

// TestCopyPhaseMissingFailsFast: one unregistered map among many must fail
// permanently (no backoff stalls) while the rest still fetch.
func TestCopyPhaseMissingFailsFast(t *testing.T) {
	s, err := newShuffleServer(false)
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
