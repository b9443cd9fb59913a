package localrun

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// outputFingerprint renders every reduce partition's pairs in order, so two
// runs can be compared for byte-identical reduce output.
func outputFingerprint(out *mapreduce.MemoryOutput, reduces int) string {
	var b strings.Builder
	for r := 0; r < reduces; r++ {
		fmt.Fprintf(&b, "partition %d\n", r)
		for _, p := range out.Pairs(r) {
			fmt.Fprintf(&b, "  %v\t%v\n", p.Key, p.Value)
		}
	}
	return b.String()
}

// spillHeavyConf forces the deep multi-spill path: a ~2 KiB spill trigger
// against tens of KiB of map output per map, with merge fan-in 2 so the
// background premerge combines trailing spill runs while the mapper is still
// collecting.
func spillHeavyConf(c *mapreduce.Conf) {
	c.SetInt(mapreduce.ConfIOSortMB, 1).
		SetFloat(mapreduce.ConfSortSpillPercent, 0.002).
		SetInt(mapreduce.ConfIOSortFactor, 2)
}

// spillCorpus is the wordcount corpus repeated until each of 3 maps sees
// dozens of spill triggers.
func spillCorpus() string {
	text, _ := corpus()
	return strings.Repeat(text, 10)
}

// TestAsyncSpillByteIdenticalToSync is the spill pipeline's identity claim:
// the background SpillThread pipeline (sort/combine/compress off the mapper
// goroutine, premerged trailing runs, overlapped final merge) must produce
// reduce output and counters byte-identical to fully synchronous spilling,
// across combiner / codec / in-flight-depth variants. The order cases run the
// arrival-order job at fan-ins 2, 3 and 10 — the two sides then merge a
// different pass structure (flat runs vs. premerged blocks), and only a merge
// that keeps ties in run order makes them agree. Run under -race this doubles
// as the concurrency witness for the buffer ring and segment pools.
func TestAsyncSpillByteIdenticalToSync(t *testing.T) {
	leakcheck.Check(t, 0)
	type spillCase struct {
		name     string
		combiner bool
		codec    bool
		inflight int
		order    bool
		factor   int
	}
	cases := []spillCase{
		{name: "plain"},
		{name: "combiner", combiner: true},
		{name: "codec", codec: true},
		{name: "combiner+codec", combiner: true, codec: true},
		{name: "inflight=3", inflight: 3},
	}
	for _, factor := range []int{2, 3, 10} {
		for _, on := range []bool{false, true} {
			cases = append(cases, spillCase{
				name:  fmt.Sprintf("order/factor=%d/combiner+codec=%v", factor, on),
				order: true, factor: factor, combiner: on, codec: on,
			})
		}
	}
	text := spillCorpus()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			build := func(sync bool) (*mapreduce.Job, *mapreduce.MemoryOutput) {
				newJob := wordCountJob
				if tc.order {
					newJob = orderJob
				}
				job, out := newJob(text, 3, 2, tc.combiner)
				spillHeavyConf(job.Conf)
				if tc.factor > 0 {
					job.Conf.SetInt(mapreduce.ConfIOSortFactor, tc.factor)
				}
				if tc.codec {
					job.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
				}
				if tc.inflight > 0 {
					job.Conf.SetInt(mapreduce.ConfSpillInflight, tc.inflight)
				}
				if sync {
					job.Conf.SetBool(mapreduce.ConfSpillOverlap, false)
				}
				return job, out
			}

			asyncJob, asyncOut := build(false)
			asyncRes, err := Run(asyncJob, nil)
			if err != nil {
				t.Fatal(err)
			}
			syncJob, syncOut := build(true)
			syncRes, err := Run(syncJob, nil)
			if err != nil {
				t.Fatal(err)
			}

			if asyncRes.MapSpill.AsyncSpills == 0 {
				t.Fatal("async run never used the background spiller")
			}
			if syncRes.MapSpill.AsyncSpills != 0 {
				t.Fatal("sync twin spilled asynchronously")
			}
			// More spills per map than the fan-in, or no side goes multi-pass.
			if perMap := asyncRes.MapSpill.Spills / 3; perMap < 6 || perMap <= int64(tc.factor) {
				t.Fatalf("%d spills per map, config did not force the multi-pass path", perMap)
			}

			if got, want := outputFingerprint(asyncOut, 2), outputFingerprint(syncOut, 2); got != want {
				t.Error("reduce output differs between background and synchronous spilling")
			}
			if got, want := asyncRes.Counters.String(), syncRes.Counters.String(); got != want {
				t.Errorf("counters differ across spill modes:\nasync:\n%s\nsync:\n%s", got, want)
			}
		})
	}
}

// TestSpillStatsAccounted sanity-checks the new pipeline telemetry: spill
// work lands on the background spiller, the premerge fires under a tiny merge
// factor, and the derived overlap window is self-consistent.
func TestSpillStatsAccounted(t *testing.T) {
	leakcheck.Check(t, 0)
	text := spillCorpus()
	job, _ := wordCountJob(text, 2, 2, false)
	spillHeavyConf(job.Conf)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.MapSpill
	if st.Spills == 0 || st.AsyncSpills != st.Spills {
		t.Fatalf("spills = %d async = %d, want all spills on the background path", st.Spills, st.AsyncSpills)
	}
	if st.SpillWork <= 0 {
		t.Error("no spill work recorded on the background spiller")
	}
	if st.PremergedRuns == 0 {
		t.Error("factor-2 multi-spill run never premerged a block")
	}
	if st.FinalMerge <= 0 {
		t.Error("no final merge time recorded")
	}
	if st.Overlapped() < 0 {
		t.Errorf("overlap window negative: %v", st.Overlapped())
	}
}

// TestSyncSpillStatsStallEqualsWork pins the sync-mode accounting contract
// the mrbench speedup math relies on: inline sealing charges every spill as
// both collector stall and spill work, so Overlapped() reports zero.
func TestSyncSpillStatsStallEqualsWork(t *testing.T) {
	leakcheck.Check(t, 0)
	text := spillCorpus()
	job, _ := wordCountJob(text, 2, 2, false)
	spillHeavyConf(job.Conf)
	job.Conf.SetBool(mapreduce.ConfSpillOverlap, false)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.MapSpill
	if st.Spills == 0 || st.AsyncSpills != 0 {
		t.Fatalf("spills = %d async = %d, want sync-only spills", st.Spills, st.AsyncSpills)
	}
	if st.CollectStall != st.SpillWork {
		t.Errorf("sync stall %v != spill work %v", st.CollectStall, st.SpillWork)
	}
	if got := st.Overlapped(); got != 0 {
		t.Errorf("sync run reports %v overlap, want 0", got)
	}
}

// stampedMapper is a generator whose values each carry their record's
// index in the map, so bytes overwritten after a spill show in the output.
type stampedMapper struct{ mapreduce.Mapper }

func (m stampedMapper) Map(k, v writable.Writable, out mapreduce.Collector, rep mapreduce.Reporter) error {
	return m.Mapper.Map(k, v, &stampingCollector{out: out}, rep)
}

type stampingCollector struct {
	out mapreduce.Collector
	n   uint32
	val writable.BytesWritable
}

func (s *stampingCollector) Collect(k, v writable.Writable) error {
	s.val.Data = binary.BigEndian.AppendUint32(s.val.Data[:0], s.n)
	s.val.Data = append(s.val.Data, v.(*writable.BytesWritable).Data[4:]...)
	s.n++
	return s.out.Collect(k, &s.val)
}

// TestHandedOverChunksOutliveTheBuffer: a spill hands a partition's chain
// of chunks over as its segment, so the chunks must leave the sort buffer
// with it. An MR-AVG job — every partition one key, so every partition is
// handed over — runs with overlap on while the ring refills the buffers
// that spilled and slow-start reducers fetch while later maps collect: at
// several spills per map, where the chains wait for the final merge, and at
// one, where they are served as they are. Values carry their record's
// index, so a chunk a refill overwrote shows in the output, which with the
// counters must equal the local oracle's: the same job spilled inline behind
// a strict barrier. Under -race, a refill writing a chunk while a merge or a
// serve reads it is a reported race.
func TestHandedOverChunksOutliveTheBuffer(t *testing.T) {
	leakcheck.Check(t, 0)
	for _, tc := range []struct {
		name         string
		sortMB       int
		spillPct     float64
		spillsPerMap int64
	}{
		{"several-spills-per-map", 1, 0.5, 4},
		{"one-spill-per-map", 4, 0.8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := microbench.Config{
				Pattern: microbench.MRAvg, DataType: "BytesWritable", KeySize: 256, ValueSize: 256,
				PairsPerMap: 3000, NumMaps: 6, NumReduces: 4, ParallelCopies: 2, Seed: 3,
			}
			run := func(oracle bool) (string, *Result) {
				job, err := microbench.BuildJob(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen := job.Mapper
				job.Mapper = func() mapreduce.Mapper { return stampedMapper{gen()} }
				out := &mapreduce.MemoryOutput{}
				job.Reducer = func() mapreduce.Reducer { return mapreduce.IdentityReducer{} }
				job.Output = out
				job.Conf.SetInt(mapreduce.ConfIOSortMB, tc.sortMB).SetFloat(mapreduce.ConfSortSpillPercent, tc.spillPct)
				opts := &Options{MapParallelism: 2, ReduceParallelism: 2, ParallelCopies: cfg.ParallelCopies}
				if oracle {
					job.Conf.SetBool(mapreduce.ConfSpillOverlap, false).SetFloat(mapreduce.ConfSlowstartMaps, 1.0)
					opts = nil
				} else {
					job.Conf.SetFloat(mapreduce.ConfSlowstartMaps, 0.05)
				}
				res, err := Run(job, opts)
				if err != nil {
					t.Fatal(err)
				}
				return renderOutput(out, cfg.NumReduces), res
			}
			wantOut, want := run(true)
			gotOut, got := run(false)
			if got.MapSpill.AsyncSpills == 0 {
				t.Fatal("the background spiller never ran")
			}
			if spills := got.MapSpill.Spills / int64(cfg.NumMaps); spills != tc.spillsPerMap {
				t.Fatalf("%d spills per map, want %d", spills, tc.spillsPerMap)
			}
			if gotOut != wantOut || gotOut == "" {
				t.Error("reduce output differs from the local oracle's")
			}
			if got.Counters.String() != want.Counters.String() {
				t.Errorf("counters differ from the local oracle's:\ngot:\n%s\nwant:\n%s", got.Counters, want.Counters)
			}
		})
	}
}

// countingCodec wraps a codec with a tally of what it is asked to do.
type countingCodec struct {
	kvbuf.Codec
	compress, readers atomic.Int64
}

func (c *countingCodec) Compress(dst, src []byte) []byte {
	c.compress.Add(1)
	return c.Codec.Compress(dst, src)
}

func (c *countingCodec) NewReader(r io.Reader) io.ReadCloser {
	c.readers.Add(1)
	return c.Codec.NewReader(r)
}

// TestMapOutputCompressedOnce: spills stay in memory, so a map's output
// meets the codec once per partition, when it is registered, however many
// times the map spilled, and the map side never inflates anything. The
// order-revealing job with a combiner spills many times per map in both
// spill modes; its output and record counters must be the codec-off run's.
func TestMapOutputCompressedOnce(t *testing.T) {
	leakcheck.Check(t, 0)
	const maps, reduces = 3, 2
	text := spillCorpus()
	for _, syncSpill := range []bool{false, true} {
		t.Run(fmt.Sprintf("syncspill=%v", syncSpill), func(t *testing.T) {
			build := func(compress bool) (*mapreduce.Job, *mapreduce.MemoryOutput) {
				job, out := orderJob(text, maps, reduces, true)
				spillHeavyConf(job.Conf)
				job.Conf.SetBool(mapreduce.ConfCompressMapOut, compress)
				job.Conf.SetBool(mapreduce.ConfSpillOverlap, !syncSpill)
				return job, out
			}
			plainJob, plainOut := build(false)
			plain, err := Run(plainJob, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Every lookup of deflate by name — the runner's from the conf, a
			// decoder's from a segment header — now finds the counting codec.
			codec := &countingCodec{Codec: kvbuf.Deflate}
			kvbuf.Deflate = codec
			defer func() { kvbuf.Deflate = codec.Codec }()
			job, out := build(true)
			tr, err := NewTaskRunner(job)
			if err != nil {
				t.Fatal(err)
			}
			server, err := newShuffleServer(false, "")
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			ctrs := mapreduce.NewCounters()
			peers := make([]string, maps)
			for m := range peers {
				before := tr.total[spills].Load()
				c, err := tr.runMapTask(mapreduce.MapAttempt(tr.jobID, m, 0), server, mapreduce.NewCounters())
				if err != nil {
					t.Fatal(err)
				}
				if n := tr.total[spills].Load() - before; n < 3 {
					t.Fatalf("map %d spilled %d times, want 3 or more", m, n)
				}
				ctrs.Merge(c)
				peers[m] = server.Addr()
			}
			if n, r := codec.compress.Load(), codec.readers.Load(); n != maps*reduces || r != 0 {
				t.Errorf("map side compressed %d times and opened %d codec readers, want %d and 0", n, r, maps*reduces)
			}
			for r := 0; r < reduces; r++ {
				c, err := tr.RunReduceFrom(context.Background(), r, 0, peers, nil, mapreduce.NewCounters(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ctrs.Merge(c)
			}

			if got, want := outputFingerprint(out, reduces), outputFingerprint(plainOut, reduces); got != want {
				t.Error("compressed run's output differs from the codec-off run's")
			}
			for _, name := range []string{
				mapreduce.CtrMapInputRecords, mapreduce.CtrMapOutputRecords, mapreduce.CtrMapOutputBytes,
				mapreduce.CtrCombineInputRecords, mapreduce.CtrCombineOutputRecs, mapreduce.CtrSpilledRecords,
				mapreduce.CtrShuffledMaps, mapreduce.CtrReduceInputGroups, mapreduce.CtrReduceInputRecords,
				mapreduce.CtrReduceOutputRecords,
			} {
				if got, want := ctrs.Task(name), plain.Counters.Task(name); got != want {
					t.Errorf("%s = %d, codec-off run %d", name, got, want)
				}
			}
		})
	}
}
