package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/figures"
	"mrmicro/internal/hadooprpc"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
	"mrmicro/internal/simcache"
	"mrmicro/internal/writable"
)

// Micro-spans: each times one layer's public kernel alone, fed with the
// workload's own records, so a per-layer number can be set against the share
// that layer has of the staged replay. Every figure is the median of
// microReps repeats; each repeat is one span.
const microReps = 5

// medianOf times fn microReps times under name and returns the median.
func medianOf(t *tracer, name string, bytes, records int64, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, microReps)
	for i := range ds {
		d, err := t.timed(name, -1, 0, bytes, records, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = d
	}
	return median(ds), nil
}

func nsPerRec(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// recordSet is a prefix of map task 0's output stream: serialized keys and
// values as the collector sees them, and the partition each was sent to.
type recordSet struct {
	keys, vals [][]byte
	parts      []int
	payload    int64
}

// genMapper is the workload's generator mapper cut to n pairs.
func genMapper(cfg microbench.Config, n int) *microbench.GenMapper {
	return &microbench.GenMapper{Pairs: int64(n), KeySize: cfg.KeySize, ValueSize: cfg.ValueSize, DataType: cfg.DataType, NumReduces: cfg.NumReduces}
}

func captureRecords(cfg microbench.Config, n int) (*recordSet, error) {
	part, err := microbench.NewPartitioner(cfg.Pattern, cfg.PairsPerMap, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rs := &recordSet{}
	err = genMapper(cfg, n).Map(nil, nil, mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		kb, vb := writable.Marshal(k), writable.Marshal(v)
		rs.keys, rs.vals = append(rs.keys, kb), append(rs.vals, vb)
		rs.parts = append(rs.parts, part.Partition(k, v, cfg.NumReduces))
		rs.payload += int64(len(kb) + len(vb))
		return nil
	}), mapreduce.NullReporter{})
	return rs, err
}

// syntheticSpans runs the kvbuf and microbench micro-spans with cfg's k/v
// sizes, data type and partitioner.
func syntheticSpans(t *tracer, cfg microbench.Config, tmp string) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}
	// As many records as one spill of this workload's sort buffer holds.
	capacity := cfg.HadoopConf().IOSortMB() << 20
	recLen := cfg.PairLen() + kvbuf.MetaBytesPerRecord
	n := int(cfg.PairsPerMap)
	if fit := int(0.8*float64(capacity)) / recLen; n > fit {
		n = fit
	}
	rs, err := captureRecords(cfg, n)
	if err != nil {
		return err
	}
	if err := microbenchSpans(t, cfg, n); err != nil {
		return err
	}
	segs, err := sortSpans(t, cfg, rs, capacity)
	if err != nil {
		return err
	}
	if cfg.Codec != "" {
		if err := codecSpans(t, segs); err != nil {
			return err
		}
		return runfileSpans(t, rs, tmp)
	}
	return nil
}

func microbenchSpans(t *tracer, cfg microbench.Config, n int) error {
	gen := genMapper(cfg, n)
	discard := mapreduce.CollectorFunc(func(_, _ writable.Writable) error { return nil })
	d, err := medianOf(t, "microbench.GenMapper.Map", 0, int64(n), func() error {
		return gen.Map(nil, nil, discard, mapreduce.NullReporter{})
	})
	if err != nil {
		return err
	}
	t.values["microbench.gen_ns_per_rec"] = nsPerRec(d, n)

	sink := 0
	d, err = medianOf(t, "microbench.Partitioner.Partition", 0, int64(n), func() error {
		part, err := microbench.NewPartitioner(cfg.Pattern, cfg.PairsPerMap, cfg.Seed)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			sink += part.Partition(nil, nil, cfg.NumReduces)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sink < 0 {
		return fmt.Errorf("partitioner returned a negative partition")
	}
	t.values["microbench.partition_ns_per_rec"] = nsPerRec(d, n)
	return nil
}

// sortSpans times collect (SortBuffer.Add), sort+spill (Spill) and an 8-way
// MergeStream. It returns the eight sorted single-partition segments.
func sortSpans(t *tracer, cfg microbench.Config, rs *recordSet, capacity int) ([]*kvbuf.Segment, error) {
	cmp, err := writable.Comparator(cfg.DataType)
	if err != nil {
		return nil, err
	}
	newBuf := func(partitions int) *kvbuf.SortBuffer {
		buf := kvbuf.NewSortBuffer(capacity, partitions, cmp)
		if pf, ok := writable.PrefixExtractor(cfg.DataType); ok {
			buf.SetPrefixFunc(pf)
		}
		return buf
	}
	n := len(rs.keys)
	add := func(buf *kvbuf.SortBuffer, lo, hi int, partition func(i int) int) error {
		for i := lo; i < hi; i++ {
			if ok, err := buf.Add(partition(i), rs.keys[i], rs.vals[i]); err != nil || !ok {
				return fmt.Errorf("SortBuffer.Add record %d: ok=%v err=%v", i, ok, err)
			}
		}
		return nil
	}

	buf := newBuf(cfg.NumReduces)
	defer buf.Release()
	var comparisons int64
	var adds, spills [microReps]time.Duration
	for rep := 0; rep < microReps; rep++ {
		if adds[rep], err = t.timed("kvbuf.SortBuffer.Add", -1, 0, rs.payload, int64(n), func() error {
			return add(buf, 0, n, func(i int) int { return rs.parts[i] })
		}); err != nil {
			return nil, err
		}
		spills[rep], _ = t.timed("kvbuf.SortBuffer.Spill", -1, 0, rs.payload, int64(n), func() error {
			var segs []*kvbuf.Segment
			segs, comparisons = buf.Spill()
			for _, s := range segs {
				s.Recycle()
			}
			return nil
		})
	}
	t.values["kvbuf.collect_ns_per_rec"] = nsPerRec(median(adds[:]), n)
	t.values["kvbuf.sort_spill_ns_per_rec"] = nsPerRec(median(spills[:]), n)
	t.values["kvbuf.sort_comparisons"] = float64(comparisons)

	const ways = 8
	segs := make([]*kvbuf.Segment, ways)
	var segBytes int64
	one := newBuf(1)
	defer one.Release()
	for s := range segs {
		if err := add(one, s*n/ways, (s+1)*n/ways, func(int) int { return 0 }); err != nil {
			return nil, err
		}
		out, _ := one.Spill()
		segs[s] = out[0]
		segBytes += int64(out[0].Len())
	}
	var merged int
	d, err := medianOf(t, "kvbuf.MergeStream", segBytes, int64(n), func() error {
		merged = 0
		comparisons, err = kvbuf.MergeStream(cmp, segs, func(_, _ []byte) error { merged++; return nil })
		return err
	})
	if err != nil {
		return nil, err
	}
	if merged != n {
		return nil, fmt.Errorf("MergeStream emitted %d records, want %d", merged, n)
	}
	t.values["kvbuf.merge_ns_per_rec"] = nsPerRec(d, n)
	t.values["kvbuf.merge_mb_per_s"] = mbPerS(segBytes, d)
	t.values["kvbuf.merge_comparisons"] = float64(comparisons)
	return segs, nil
}

// codecSpans times spill-time deflate and fetch-side streaming inflate over
// the segments, in raw (uncompressed) MiB/s.
func codecSpans(t *tracer, segs []*kvbuf.Segment) error {
	var raw, wire int64
	comp := make([]*kvbuf.Segment, len(segs))
	d, err := medianOf(t, "kvbuf.CompressSegmentWith", 0, 0, func() error {
		raw, wire = 0, 0
		for i, s := range segs {
			comp[i] = kvbuf.CompressSegmentWith(s, kvbuf.Deflate)
			raw += int64(s.Len())
			wire += int64(comp[i].Len())
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.values["kvbuf.deflate_mb_per_s"] = mbPerS(raw, d)
	t.values["kvbuf.compress_ratio"] = float64(raw) / float64(wire)

	d, err = medianOf(t, "kvbuf.ReadCompressedSegment", wire, 0, func() error {
		for i, c := range comp {
			got, err := kvbuf.ReadCompressedSegment(bytes.NewReader(c.Bytes()), c.Len())
			if err != nil {
				return err
			}
			if got.Len() != segs[i].Len() {
				return fmt.Errorf("inflated %d bytes, want %d", got.Len(), segs[i].Len())
			}
			got.Recycle()
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.values["kvbuf.inflate_mb_per_s"] = mbPerS(raw, d)
	return nil
}

// runfileSpans times the reduce-side disk-run format: StreamWriter to a file
// under the temp root, RunReader back.
func runfileSpans(t *tracer, rs *recordSet, tmp string) error {
	path := filepath.Join(tmp, "bench-run.ifile")
	defer os.Remove(path)
	var written int64
	d, err := medianOf(t, "kvbuf.StreamWriter", rs.payload, int64(len(rs.keys)), func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		sw := kvbuf.NewStreamWriter(f)
		for i := range rs.keys {
			if err := sw.Append(rs.keys[i], rs.vals[i]); err != nil {
				f.Close()
				return err
			}
		}
		if _, written, err = sw.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	t.values["kvbuf.runfile_write_mb_per_s"] = mbPerS(written, d)

	d, err = medianOf(t, "kvbuf.RunReader", written, int64(len(rs.keys)), func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rr, err := kvbuf.NewRunReader(f, false)
		if err != nil {
			return err
		}
		defer rr.Close()
		for {
			_, _, ok, err := rr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if rr.RecordsRead() != len(rs.keys) {
			return fmt.Errorf("read %d records, wrote %d", rr.RecordsRead(), len(rs.keys))
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.values["kvbuf.runfile_read_mb_per_s"] = mbPerS(written, d)
	return nil
}

// ---- dist-avg ----

func (w *distWL) trace(t *tracer, budget time.Duration) error {
	build := func() (*mapreduce.Job, error) { return microbench.BuildJob(w.cfg) }
	if err := stagedReplays(t, build, false, budget*4/10, w.last.Counters, false); err != nil {
		return err
	}
	// The in-process run of the same config: what the job costs without
	// coordinator, RPC and process boundaries.
	d, err := medianOf(t, "distrun.LocalOracle", 0, 0, func() error {
		_, err := distrun.LocalOracle(w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	t.values["distrun.local_oracle_ms"] = ms(d)
	t.values["distrun.overhead_ms_per_task"] = (median(w.elapsedMs) - ms(d)) / float64(w.cfg.NumMaps+w.cfg.NumReduces)
	if err := rpcSpans(t); err != nil {
		return err
	}
	return syntheticSpans(t, w.cfg, w.e.tmp)
}

// rpcSpans times hadooprpc round trips on one Client over loopback: 2000
// small echoes (median per call) and 64 KiB echoes (payload bytes, counted
// once per call, per second).
func rpcSpans(t *tracer) error {
	srv, err := hadooprpc.NewServer("127.0.0.1:0", "bench")
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Register("echo", func(in *writable.DataInput, out *writable.DataOutput) error {
		var b writable.BytesWritable
		if err := b.ReadFields(in); err != nil {
			return err
		}
		b.Write(out)
		return nil
	})
	cl, err := hadooprpc.Dial(srv.Addr(), "bench")
	if err != nil {
		return err
	}
	defer cl.Close()

	echo := func(size, calls int, each func(time.Duration)) error {
		payload := &writable.BytesWritable{Data: make([]byte, size)}
		var reply writable.BytesWritable
		for i := 0; i < calls; i++ {
			start := time.Now()
			if err := cl.Call("echo", &reply, payload); err != nil {
				return err
			}
			if each != nil {
				each(time.Since(start))
			}
			if len(reply.Data) != size {
				return fmt.Errorf("echo returned %d bytes, sent %d", len(reply.Data), size)
			}
		}
		return nil
	}
	const smallCalls, bulkCalls, bulkSize = 2000, 400, 64 << 10
	us := make([]float64, 0, smallCalls)
	if _, err := t.timed("hadooprpc.Client.Call/16B", -1, 0, 16*smallCalls, smallCalls, func() error {
		return echo(16, smallCalls, func(d time.Duration) { us = append(us, float64(d)/1e3) })
	}); err != nil {
		return err
	}
	t.values["hadooprpc.call_us"] = median(us)
	d, err := medianOf(t, "hadooprpc.Client.Call/64KiB", bulkSize*bulkCalls, bulkCalls, func() error {
		return echo(bulkSize, bulkCalls, nil)
	})
	if err != nil {
		return err
	}
	t.values["hadooprpc.bulk_mb_per_s"] = mbPerS(bulkSize*bulkCalls, d)
	return nil
}

// ---- hs-pipeline ----

func (w *hsWL) trace(t *tracer, budget time.Duration) error {
	dir, _, stages, err := w.run()
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return err
	}
	// HSSort is the pipeline's shuffle-bearing stage: replay it staged over
	// the rows this HSGen run committed, into an output directory of its own.
	sortCfg := stages[1].Config
	sortCfg.OutputDir = filepath.Join(dir, "staged-hssort")
	build := func() (*mapreduce.Job, error) {
		if err := os.RemoveAll(sortCfg.OutputDir); err != nil {
			return nil, err
		}
		return microbench.BuildJob(sortCfg)
	}
	if err := stagedReplays(t, build, false, budget/2, stages[1].Counters, false); err != nil {
		return err
	}
	if err := wallAtGOMAXPROCS1(t, w.job); err != nil {
		return err
	}
	return inputformatSpans(t, stages[0].Config.OutputDir, filepath.Join(dir, "textoutput"))
}

// inputformatSpans times the chunk-spanning LineReader over every split of
// genDir and the TextOutput committer writing the first splits' lines back.
func inputformatSpans(t *tracer, genDir, outDir string) error {
	tf := &inputformat.TextFormat{Dir: genDir}
	conf := mapreduce.NewConf()
	splits, err := tf.Splits(conf)
	if err != nil {
		return err
	}
	total, err := inputformat.TotalBytes(genDir)
	if err != nil {
		return err
	}
	const keep = 16 << 20 // lines kept for the write span
	var lines []*writable.Text
	var kept int
	d, err := medianOf(t, "inputformat.LineReader", total, 0, func() error {
		lines, kept = lines[:0], 0
		for _, sp := range splits {
			rd, err := tf.Reader(sp, conf)
			if err != nil {
				return err
			}
			for {
				_, v, ok, err := rd.Next()
				if err != nil {
					rd.Close()
					return err
				}
				if !ok {
					break
				}
				if kept < keep { // the reader reuses its Text; keep a copy
					line := v.(*writable.Text).Data
					lines = append(lines, &writable.Text{Data: append([]byte(nil), line...)})
					kept += len(line) + 1
				}
			}
			if err := rd.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.values["inputformat.read_mb_per_s"] = mbPerS(total, d)

	out := inputformat.TextOutput{Dir: outDir}
	d, err = medianOf(t, "inputformat.TextOutput", int64(kept), int64(len(lines)), func() error {
		wr, err := out.Writer(conf, 0)
		if err != nil {
			return err
		}
		for _, line := range lines {
			if err := wr.Write(line, writable.NullWritable{}); err != nil {
				wr.Close()
				return err
			}
		}
		return wr.Close()
	})
	if err != nil {
		return err
	}
	written, err := inputformat.TotalBytes(outDir)
	if err != nil {
		return err
	}
	if written != int64(kept) {
		return fmt.Errorf("TextOutput committed %d bytes, wrote %d", written, kept)
	}
	t.values["inputformat.write_mb_per_s"] = mbPerS(written, d)
	return nil
}

// ---- sim-figs ----

func (w *simWL) trace(t *tracer, budget time.Duration) error {
	// Workers=1 must render what Workers=nproc rendered; the same pass fills
	// a cache, so the next one shows the cached use of the sweep layer.
	dir, err := os.MkdirTemp(w.e.tmp, "simcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := simcache.New(dir)
	if err != nil {
		return err
	}
	var digest uint64
	if _, err := t.timed("figures.pass/workers=1/cold-cache", -1, 0, w.simBytes, w.points, func() error {
		digest, err = w.pass(figures.Options{Workers: 1, Cache: cache}, nil)
		return err
	}); err != nil {
		return err
	}
	if digest != w.digest {
		return fmt.Errorf("Workers=1 rendered digest %016x, Workers=%d rendered %016x", digest, w.e.nproc, w.digest)
	}
	hits0, misses0 := cache.Stats()
	d, err := t.timed("figures.pass/warm-cache", -1, 0, w.simBytes, w.points, func() error {
		digest, err = w.pass(figures.Options{Workers: w.e.nproc, Cache: cache}, nil)
		return err
	})
	if err != nil {
		return err
	}
	if digest != w.digest {
		return fmt.Errorf("cached pass rendered digest %016x, uncached %016x", digest, w.digest)
	}
	hits1, misses1 := cache.Stats()
	t.values["simcache.warm_pass_ms"] = ms(d)
	t.values["simcache.hit_ratio"] = float64(hits1-hits0) / float64(hits1-hits0+misses1-misses0)

	if err := engineSpans(t); err != nil {
		return err
	}
	kernelSpans(t)
	return nil
}

// engineSpans times one fixed sweep point per simulated engine, and the spec
// build of fig4a's 10-byte-record point (where it dominates).
func engineSpans(t *tracer) error {
	const gib = 1 << 30
	mrv1 := microbench.Config{ // a fig2a point
		Pattern: microbench.MRAvg, KeySize: 1024, ValueSize: 1024,
		Engine: microbench.EngineMRv1, Cluster: microbench.ClusterA, Slaves: 4, NumMaps: 16, NumReduces: 8,
		Network: netsim.TenGigE.Name,
	}
	yarn := mrv1 // a fig3a point
	yarn.Engine, yarn.Slaves, yarn.NumMaps, yarn.NumReduces = microbench.EngineYARN, 8, 32, 16
	rdma := mrv1 // a fig8a point
	rdma.Cluster, rdma.Slaves, rdma.NumMaps, rdma.NumReduces = microbench.ClusterB, 8, 32, 16
	rdma.Network, rdma.RDMAShuffle = netsim.RDMAFDR56.Name, true
	tiny := mrv1 // a fig4a point: 10-byte records, so the spec build draws the most
	tiny.KeySize, tiny.ValueSize = 10, 10

	for _, p := range []struct {
		metric string
		cfg    microbench.Config
	}{
		{"mrv1.run_ms_per_point", mrv1.WithShuffleSize(16 * gib)},
		{"yarn.run_ms_per_point", yarn.WithShuffleSize(16 * gib)},
		{"rdmashuffle.run_ms_per_point", rdma.WithShuffleSize(32 * gib)},
	} {
		d, err := medianOf(t, "microbench.Run/"+p.metric, p.cfg.ShuffleBytes(), 0, func() error {
			_, err := microbench.Run(p.cfg)
			return err
		})
		if err != nil {
			return err
		}
		t.values[p.metric] = ms(d)
	}
	tinyPoint := tiny.WithShuffleSize(16 * gib)
	d, err := medianOf(t, "microbench.BuildSpec", tinyPoint.ShuffleBytes(), 0, func() error {
		_, err := microbench.BuildSpec(tinyPoint)
		return err
	})
	if err != nil {
		return err
	}
	t.values["microbench.specbuild_ms"] = ms(d)
	return nil
}

// kernelSpans scripts the sim kernel and the fabric through their public
// API: self-rescheduling timers at the queue depth a sweep holds, one process
// sleeping in a loop, and an 8-node all-to-all.
func kernelSpans(t *tracer) {
	const events, window = 1 << 20, 48
	d, _ := medianOf(t, "sim.Engine.Schedule+Run", 0, events, func() error {
		e := sim.NewEngine()
		fired, left := 0, events
		var tick func()
		tick = func() {
			fired++
			if left--; left > 0 {
				e.Schedule(sim.Time(1+fired%7), tick)
			}
		}
		for i := 0; i < window; i++ {
			e.Schedule(sim.Time(i%13), tick)
		}
		e.Run()
		return nil
	})
	t.values["sim.events_per_s"] = events / d.Seconds()

	const switches = 1 << 17
	d, _ = medianOf(t, "sim.Proc.Sleep", 0, switches, func() error {
		e := sim.NewEngine()
		e.Go("switcher", func(p *sim.Proc) {
			for i := 0; i < switches; i++ {
				p.Sleep(sim.Time(time.Nanosecond))
			}
		})
		e.Run()
		return nil
	})
	t.values["sim.proc_switches_per_s"] = switches / d.Seconds()

	const nodes, rounds = 8, 20
	flows := nodes * (nodes - 1) * rounds
	d, _ = medianOf(t, "netsim.Fabric.Transfer/all-to-all", 0, int64(flows), func() error {
		for round := 0; round < rounds; round++ {
			e := sim.NewEngine()
			f := netsim.NewFabric(e, netsim.TenGigE, nodes)
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src != dst {
						src, dst := src, dst
						e.Go("flow", func(p *sim.Proc) { f.Transfer(p, src, dst, int64(64+src+dst)<<20) })
					}
				}
			}
			e.Run()
		}
		return nil
	})
	t.values["netsim.flows_per_s"] = float64(flows) / d.Seconds()
}
