package mapreduce

import (
	"bytes"
	"reflect"
	"sync"

	"mrmicro/internal/writable"
)

// Pair is one in-memory key/value record.
type Pair struct {
	Key, Value writable.Writable
}

// SliceInput serves in-memory records, split round-robin across
// mapreduce.job.maps map tasks.
type SliceInput struct {
	Pairs []Pair
}

type sliceSplit struct {
	pairs []Pair
}

func (s *sliceSplit) Length() int64 { return int64(len(s.pairs)) }

// Splits partitions the records into NumMaps round-robin slices.
func (in *SliceInput) Splits(conf *Conf) ([]InputSplit, error) {
	n := conf.NumMaps()
	splits := make([]*sliceSplit, n)
	for i := range splits {
		splits[i] = &sliceSplit{}
	}
	for i, p := range in.Pairs {
		s := splits[i%n]
		s.pairs = append(s.pairs, p)
	}
	out := make([]InputSplit, n)
	for i, s := range splits {
		out[i] = s
	}
	return out, nil
}

// Reader iterates one split.
func (in *SliceInput) Reader(split InputSplit, _ *Conf) (RecordReader, error) {
	return &sliceReader{pairs: split.(*sliceSplit).pairs}, nil
}

type sliceReader struct {
	pairs []Pair
	pos   int
}

func (r *sliceReader) Next() (writable.Writable, writable.Writable, bool, error) {
	if r.pos >= len(r.pairs) {
		return nil, nil, false, nil
	}
	p := r.pairs[r.pos]
	r.pos++
	return p.Key, p.Value, true, nil
}

func (r *sliceReader) Close() error { return nil }

// MemoryOutput collects reduce output in memory, keyed by reduce index. It
// stores a deep copy of every record: writers may not retain what they are
// handed (see Collector). Safe for concurrent writers (one per reduce task).
type MemoryOutput struct {
	mu     sync.Mutex
	byTask map[int][]Pair
}

// Writer returns the writer for one reduce task.
func (o *MemoryOutput) Writer(_ *Conf, reduce int) (RecordWriter, error) {
	return &memoryWriter{out: o, task: reduce}, nil
}

// Pairs returns reduce task r's output in emission order.
func (o *MemoryOutput) Pairs(r int) []Pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byTask[r]
}

// All returns every reduce task's output concatenated in task order.
func (o *MemoryOutput) All(numReduces int) []Pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []Pair
	for r := 0; r < numReduces; r++ {
		out = append(out, o.byTask[r]...)
	}
	return out
}

type memoryWriter struct {
	out  *MemoryOutput
	task int
	buf  []Pair
}

func (w *memoryWriter) Write(key, value writable.Writable) error {
	k, err := clone(key)
	if err != nil {
		return err
	}
	v, err := clone(value)
	if err != nil {
		return err
	}
	w.buf = append(w.buf, Pair{Key: k, Value: v})
	return nil
}

func (w *memoryWriter) Abort() error {
	w.buf = nil
	return nil
}

// clone deep-copies a writable into a fresh instance of its concrete type,
// through its serialization. A Text copies its bytes instead, skipping
// ReadFields' UTF-8 check: the copy holds whatever the reducer emitted.
func clone(w writable.Writable) (writable.Writable, error) {
	if v, ok := w.(*writable.Text); ok {
		return &writable.Text{Data: bytes.Clone(v.Data)}, nil
	}
	t := reflect.TypeOf(w)
	if t.Kind() != reflect.Pointer {
		return w, nil // the interface already holds a copy of a value type
	}
	c := reflect.New(t.Elem()).Interface().(writable.Writable)
	return c, writable.Unmarshal(writable.Marshal(w), c)
}

func (w *memoryWriter) Close() error {
	w.out.mu.Lock()
	defer w.out.mu.Unlock()
	if w.out.byTask == nil {
		w.out.byTask = make(map[int][]Pair)
	}
	w.out.byTask[w.task] = w.buf
	return nil
}

// NullOutput discards all reduce output after iterating it, the paper's
// NullOutputFormat: ideal for benchmarking MapReduce stand-alone.
type NullOutput struct{}

// Writer returns a discarding writer.
func (NullOutput) Writer(*Conf, int) (RecordWriter, error) { return nullWriter{}, nil }

type nullWriter struct{}

func (nullWriter) Write(key, value writable.Writable) error { return nil }
func (nullWriter) Close() error                             { return nil }
func (nullWriter) Abort() error                             { return nil }
