package distrun

import (
	"encoding/binary"
	"sync"

	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
	"mrmicro/internal/xxh64"
)

// Output digests are how the suite compares reduce output across process
// boundaries: each reduce task folds its emitted (key, value) records — in
// emission order, with length framing — into an XXH64 digest reported in
// its commit. Two runs whose per-reduce digests all match produced
// byte-identical output; localrun computes the same digests in-process, so
// a distributed run can be checked against the single-process oracle.

// digestOutput wraps a job's OutputFormat, tee-ing every record through a
// per-reduce digest while still forwarding to the wrapped format. Safe for
// concurrent reduce tasks.
type digestOutput struct {
	inner mapreduce.OutputFormat

	mu      sync.Mutex
	digests map[int]uint64
}

func newDigestOutput(inner mapreduce.OutputFormat) *digestOutput {
	return &digestOutput{inner: inner, digests: make(map[int]uint64)}
}

func (d *digestOutput) Writer(conf *mapreduce.Conf, reduce int) (mapreduce.RecordWriter, error) {
	w, err := d.inner.Writer(conf, reduce)
	if err != nil {
		return nil, err
	}
	return &digestWriter{out: d, reduce: reduce, inner: w, h: xxh64.New()}, nil
}

// digest returns reduce r's recorded digest (0 before its writer closed).
func (d *digestOutput) digest(r int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.digests[r]
}

type digestWriter struct {
	out    *digestOutput
	reduce int
	inner  mapreduce.RecordWriter
	h      *xxh64.Digest
	frame  [8]byte
}

func (w *digestWriter) Write(key, value writable.Writable) error {
	kb := writable.Marshal(key)
	vb := writable.Marshal(value)
	binary.BigEndian.PutUint32(w.frame[:4], uint32(len(kb)))
	binary.BigEndian.PutUint32(w.frame[4:], uint32(len(vb)))
	w.h.Write(w.frame[:])
	w.h.Write(kb)
	w.h.Write(vb)
	return w.inner.Write(key, value)
}

func (w *digestWriter) Close() error {
	w.out.mu.Lock()
	w.out.digests[w.reduce] = w.h.Sum64()
	w.out.mu.Unlock()
	return w.inner.Close()
}

// Abort discards the attempt: no digest is recorded.
func (w *digestWriter) Abort() error { return w.inner.Abort() }

// foldDigests combines per-reduce digests (in task order) into one job
// digest.
func foldDigests(digests []uint64) uint64 {
	buf := make([]byte, 0, 8*len(digests))
	for _, d := range digests {
		buf = binary.BigEndian.AppendUint64(buf, d)
	}
	return xxh64.Sum64(buf)
}

// LocalOracle runs cfg in-process with the same per-reduce output digests a
// distributed run reports — the single-process ground truth the crash tests
// and mrcheck's dist invariant compare against. Fault injection is stripped:
// the oracle states what a correct run produces, and recovery must never
// change output.
func LocalOracle(cfg microbench.Config) (*Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	cfg.Faults = nil
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		return nil, err
	}
	dig := newDigestOutput(job.Output)
	job.Output = dig
	lres, err := localrun.Run(job, &localrun.Options{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Counters:         lres.Counters,
		NumMaps:          lres.NumMaps,
		NumReduces:       lres.NumReduces,
		Elapsed:          lres.Elapsed,
		PerReduceRecords: lres.PerReduceRecords,
		PerReduceDigests: make([]uint64, lres.NumReduces),
	}
	for r := 0; r < lres.NumReduces; r++ {
		res.PerReduceDigests[r] = dig.digest(r)
	}
	res.JobDigest = foldDigests(res.PerReduceDigests)
	return res, nil
}
