package localrun

import (
	"errors"
	"testing"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
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

// TestStoreContract holds the memory and the disk store to the one contract
// the shuffle server is written against: register, re-register newest-wins,
// a miss answers status 1 without killing a pipelined connection, Unregister
// drops every partition of a map, and register-after-close errors.
func TestStoreContract(t *testing.T) {
	seg := func(val string) *kvbuf.Segment {
		w := kvbuf.NewWriter(64)
		w.Append([]byte("key"), []byte(val))
		return w.Close()
	}
	for name, disk := range map[string]bool{"memory": false, "disk": true} {
		t.Run(name, func(t *testing.T) {
			srv, err := newShuffleServer(disk)
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
			fetch(7, 7, "")
			fetch(0, 0, "m0p0")
			fetch(0, 1, "m0p1")
			fetch(1, 0, "m1p0") // newest registration wins
			fetch(1, 1, "")

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

// benchmarkServePath measures the segment-serving hot path end to end over
// loopback TCP: one registered map output fetched repeatedly, exercising
// writev from the retained buffer (memory store) or sendfile from the spill
// file (disk store).
func benchmarkServePath(b *testing.B, disk bool) {
	srv, err := newShuffleServer(disk)
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
