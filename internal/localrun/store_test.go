package localrun

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// runCountsAndStats executes the canonical word-count job with the given
// options and returns its output counts, result, and the serve counters the
// run accumulated (process-wide stats are reset first; localrun tests run
// sequentially within the package, so the window is private to the run).
func runCountsAndStats(t *testing.T, reduces int, opts *Options, compress bool) (map[string]int64, *Result, ServeStats) {
	t.Helper()
	text, _ := corpus()
	job, out := wordCountJob(text, 4, reduces, false)
	if compress {
		job.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
	}
	ResetShuffleServeStats()
	res, err := Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return collectCounts(t, out, reduces), res, ShuffleServeStats()
}

// TestDiskShuffleEndToEnd runs the same job through the in-memory (writev)
// and disk-backed (sendfile) serving paths and checks three things: the
// output is identical, each run uses only its own zero-copy path, and the
// bytes each path accounts equal the wire bytes the reducers report — any
// read-then-write double copy in the server would leave served bytes
// unaccounted by both counters.
func TestDiskShuffleEndToEnd(t *testing.T) {
	leakcheck.Check(t, 0)
	memGot, memRes, memStats := runCountsAndStats(t, 3, nil, false)
	diskGot, diskRes, diskStats := runCountsAndStats(t, 3, &Options{DiskShuffle: true}, false)

	if len(memGot) == 0 {
		t.Fatal("no output")
	}
	for w, n := range memGot {
		if diskGot[w] != n {
			t.Errorf("count[%s] = %d with DiskShuffle, want %d", w, diskGot[w], n)
		}
	}

	if memStats.WritevBytes <= 0 || memStats.SendfileBytes != 0 {
		t.Errorf("memory serving stats = %+v, want writev only", memStats)
	}
	if diskStats.SendfileBytes <= 0 || diskStats.WritevBytes != 0 {
		t.Errorf("disk serving stats = %+v, want sendfile only", diskStats)
	}

	memWire := memRes.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	if memStats.WritevBytes != memWire {
		t.Errorf("writev bytes %d != REDUCE_SHUFFLE_BYTES %d", memStats.WritevBytes, memWire)
	}
	diskWire := diskRes.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	if diskStats.SendfileBytes != diskWire {
		t.Errorf("sendfile bytes %d != REDUCE_SHUFFLE_BYTES %d", diskStats.SendfileBytes, diskWire)
	}

	wantResponses := memRes.Counters.Task(mapreduce.CtrShuffledMaps)
	for _, st := range []ServeStats{memStats, diskStats} {
		if st.Responses != wantResponses {
			t.Errorf("responses = %d, want SHUFFLED_MAPS = %d", st.Responses, wantResponses)
		}
	}
}

// TestDiskShuffleCompressedEndToEnd layers the codec on the disk store:
// compressed segments land in the spill file and still leave via sendfile,
// and the reducers decode the same counts.
func TestDiskShuffleCompressedEndToEnd(t *testing.T) {
	leakcheck.Check(t, 0)
	plainGot, _, _ := runCountsAndStats(t, 2, nil, false)
	got, res, stats := runCountsAndStats(t, 2, &Options{DiskShuffle: true}, true)
	for w, n := range plainGot {
		if got[w] != n {
			t.Errorf("count[%s] = %d compressed+disk, want %d", w, got[w], n)
		}
	}
	if stats.SendfileBytes <= 0 || stats.WritevBytes != 0 {
		t.Errorf("serving stats = %+v, want sendfile only", stats)
	}
	wire := res.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	if stats.SendfileBytes != wire {
		t.Errorf("sendfile bytes %d != REDUCE_SHUFFLE_BYTES %d", stats.SendfileBytes, wire)
	}
}

// chainedSegment spills n records of one key into one partition: a chain
// of several chunks, handed over as a segment of as many ranges.
func chainedSegment(t testing.TB, n int) *kvbuf.Segment {
	t.Helper()
	cmp, _ := writable.Comparator("BytesWritable")
	buf := kvbuf.NewSortBuffer(256<<10, 1, cmp)
	defer buf.Release()
	key := writable.Marshal(&writable.BytesWritable{Data: []byte("chained")})
	for i := 0; i < n; i++ {
		val := fmt.Appendf(make([]byte, 0, 1000), "%0*d", 1000, i)
		if ok, err := buf.Add(0, key, val); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
	segs, _ := buf.Spill()
	if ranges := len(segs[0].AppendRanges(nil)); ranges < 2 {
		t.Fatalf("%d records spilled into %d range(s), want a chain of several", n, ranges)
	}
	return segs[0]
}

// TestStoreContract holds the memory and the disk store to the one contract
// the shuffle server is written against: register, re-register newest-wins,
// a miss answers status 1 without killing a pipelined connection, Unregister
// drops every partition of a map, register-after-close errors, and a
// segment of several ranges is served as its bytes, its run marks with it.
func TestStoreContract(t *testing.T) {
	seg := func(val string) *kvbuf.Segment {
		w := kvbuf.NewWriter(64)
		w.Append([]byte("key"), []byte(val))
		return w.Close()
	}
	for name, disk := range map[string]bool{"memory": false, "disk": true} {
		t.Run(name, func(t *testing.T) {
			srv, err := newShuffleServer(disk, "")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for _, reg := range []struct {
				m, p int
				val  string
			}{{0, 0, "m0p0"}, {0, 1, "m0p1"}, {1, 0, "stale"}, {1, 0, "m1p0"}} {
				if err := srv.Register(reg.m, reg.p, seg(reg.val)); err != nil {
					t.Fatal(err)
				}
			}

			c, err := dialShuffle(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// want "" is a miss. Everything rides one connection, misses
			// pipelined ahead of hits.
			fetch := func(m, p int, want string) {
				t.Helper()
				if err := c.request(m, p); err != nil {
					t.Fatal(err)
				}
				got, _, err := c.response(false)
				switch {
				case want == "" && !errors.Is(err, errSegmentMissing):
					t.Errorf("map %d partition %d: err %v, want a status-1 miss", m, p, err)
				case want != "" && err != nil:
					t.Errorf("map %d partition %d: %v", m, p, err)
				case want != "":
					if _, v, _, _ := got.NewReader().Next(); string(v) != want {
						t.Errorf("map %d partition %d served %q, want %q", m, p, v, want)
					}
				}
			}
			chain := chainedSegment(t, 200)
			want, wantMarks := chain.Bytes(), chain.AppendMarksFrame(nil)
			if len(wantMarks) <= 8 {
				t.Fatal("a chain of one key carries no run marks")
			}
			if err := srv.Register(2, 0, chain); err != nil {
				t.Fatal(err)
			}

			fetch(7, 7, "")
			fetch(0, 0, "m0p0")
			fetch(0, 1, "m0p1")
			fetch(1, 0, "m1p0") // newest registration wins
			fetch(1, 1, "")

			if err := c.request(2, 0); err != nil {
				t.Fatal(err)
			}
			if got, _, err := c.response(false); err != nil || !bytes.Equal(got.Bytes(), want) || !bytes.Equal(got.AppendMarksFrame(nil), wantMarks) {
				t.Errorf("chained segment: err %v, bytes served equal %v, marks equal %v", err,
					err == nil && bytes.Equal(got.Bytes(), want), err == nil && bytes.Equal(got.AppendMarksFrame(nil), wantMarks))
			}

			srv.Unregister(0)
			fetch(0, 0, "")
			fetch(0, 1, "")
			fetch(1, 0, "m1p0") // another map's output is untouched

			c.Close()
			srv.Close()
			if err := srv.Register(2, 0, seg("late")); !errors.Is(err, ErrServerClosed) {
				t.Errorf("register after close = %v, want ErrServerClosed", err)
			}
		})
	}
}

// TestMemStoreSendAllocatesNothing: a response is built in the
// connection's scratch, so serving a chained segment from memory over a
// loopback connection allocates nothing.
func TestMemStoreSendAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := &memStore{segs: map[segKey]memSeg{}}
	m.put(0, 0, chainedSegment(t, 200))
	defer m.close()
	sc := new(sendScratch)
	send := func() {
		if found, err := m.send(conn, sc, 0, 0); !found || err != nil {
			t.Fatalf("send: found %v err %v", found, err)
		}
	}
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("serving a chained segment allocates %.2f times per response, want 0", avg)
	}
	conn.Close()
	<-drained
}

// benchmarkServePath measures the segment-serving hot path end to end over
// loopback TCP: one registered map output fetched repeatedly, exercising
// writev from the retained buffer (memory store) or sendfile from the spill
// file (disk store).
func benchmarkServePath(b *testing.B, disk bool) {
	srv, err := newShuffleServer(disk, "")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	seg := benchSegment(6000, 1) // ~256 KiB of TeraSort-shaped records
	payload := int64(seg.Len())
	if err := srv.Register(0, 0, seg); err != nil {
		b.Fatal(err) // disk store consumes seg; don't touch it past here
	}

	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, _, err := FetchMapOutput(srv.Addr(), 0, 0, false, nil, faultinject.Backoff{})
		if err != nil {
			b.Fatal(err)
		}
		got.Recycle()
	}
}

func BenchmarkShuffleServeMemoryWritev(b *testing.B) { benchmarkServePath(b, false) }
func BenchmarkShuffleServeDiskSendfile(b *testing.B) { benchmarkServePath(b, true) }
