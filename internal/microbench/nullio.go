package microbench

import (
	"fmt"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// NullInputFormat fabricates mapreduce.job.maps dummy splits with a single
// record each, so map tasks launch without HDFS or any other file system —
// the paper's stand-alone mechanism (Sect. 4.1). The generator Mapper
// ignores the dummy record and synthesizes its own key/value pairs.
type NullInputFormat struct{}

type nullSplit struct{}

func (nullSplit) Length() int64 { return 0 }

// Splits returns NumMaps empty splits.
func (NullInputFormat) Splits(conf *mapreduce.Conf) ([]mapreduce.InputSplit, error) {
	n := conf.NumMaps()
	if n <= 0 {
		return nil, fmt.Errorf("microbench: %s must be positive", mapreduce.ConfNumMaps)
	}
	out := make([]mapreduce.InputSplit, n)
	for i := range out {
		out[i] = nullSplit{}
	}
	return out, nil
}

// Reader yields the split's single dummy record.
func (NullInputFormat) Reader(mapreduce.InputSplit, *mapreduce.Conf) (mapreduce.RecordReader, error) {
	return &nullReader{}, nil
}

type nullReader struct{ done bool }

func (r *nullReader) Next() (writable.Writable, writable.Writable, bool, error) {
	if r.done {
		return nil, nil, false, nil
	}
	r.done = true
	return writable.NullWritable{}, writable.NullWritable{}, true, nil
}

func (r *nullReader) Close() error { return nil }

// GenMapper is the suite's generator map function: on its single dummy
// input record it emits Pairs key/value pairs of the configured sizes and
// data type. Unique keys are limited to the reducer count to avoid
// extraneous comparison overhead, exactly as the paper prescribes
// (Sect. 4.2).
type GenMapper struct {
	Pairs      int64
	KeySize    int
	ValueSize  int
	DataType   string // "BytesWritable" or "Text"
	NumReduces int
}

// Map emits the synthetic stream. The uniq distinct keys and the one filler
// value are built once and re-emitted: a Collector serializes before it
// returns, so the per-record path allocates nothing.
func (g *GenMapper) Map(_, _ writable.Writable, out mapreduce.Collector, rep mapreduce.Reporter) error {
	if g.Pairs <= 0 {
		return fmt.Errorf("microbench: generator needs a positive pair count")
	}
	uniq := int64(max(g.NumReduces, 1))
	keys := make([]writable.Writable, min(uniq, g.Pairs))
	var val writable.Writable
	for idx := range keys {
		k, v, err := makePair(g.DataType, g.KeySize, g.ValueSize, idx)
		if err != nil {
			return err
		}
		keys[idx], val = k, v
	}
	for i := int64(0); i < g.Pairs; i++ {
		if err := out.Collect(keys[i%uniq], val); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op.
func (g *GenMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// makePair builds one synthetic record: the key payload encodes the key
// index (padded to KeySize) so at most `uniq` distinct keys exist; the
// value payload is filler, the same for every key index.
func makePair(dataType string, keySize, valueSize, keyIdx int) (writable.Writable, writable.Writable, error) {
	switch dataType {
	case "BytesWritable":
		return &writable.BytesWritable{Data: payload(keySize, byte(keyIdx))},
			&writable.BytesWritable{Data: payload(valueSize, 0x56)}, nil
	case "Text":
		return &writable.Text{Data: textPayload(keySize, keyIdx)},
			&writable.Text{Data: textPayload(valueSize, 0)}, nil
	default:
		return nil, nil, fmt.Errorf("microbench: unsupported data type %q", dataType)
	}
}

func payload(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

// textPayload is printable ASCII so the Text type's UTF-8 validation holds.
func textPayload(n, idx int) []byte {
	b := make([]byte, n)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range b {
		b[i] = alphabet[(idx+i)%len(alphabet)]
	}
	return b
}

// FirstValueCombiner is the suite's map-side combiner: it keeps the first
// value of each key group and drops the rest. Because GenMapper values are
// constant filler per data type, every value in a group is byte-identical
// and keeping one is lossless — combining collapses a group's multiplicity
// to 1, which is the maximum byte reduction a combiner can legally achieve
// here and exactly what the sim engines model from distinct-key counts.
type FirstValueCombiner struct{}

// Reduce emits the group's first value and drains the rest.
func (FirstValueCombiner) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	v, ok := values.Next()
	if !ok {
		return nil
	}
	if err := out.Collect(key, v); err != nil {
		return err
	}
	for {
		if _, ok := values.Next(); !ok {
			return nil
		}
	}
}

// Close is a no-op.
func (FirstValueCombiner) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// DiscardReducer iterates and discards every value, the reduce side of all
// three micro-benchmarks (paired with mapreduce.NullOutput).
type DiscardReducer struct{}

// Reduce drains the group.
func (DiscardReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	n := int64(0)
	for {
		if _, ok := values.Next(); !ok {
			break
		}
		n++
	}
	// Emit one summary record per key so NullOutput has something to
	// discard, mirroring the original benchmark's write-to-/dev/null.
	return out.Collect(key, &writable.LongWritable{Value: n})
}

// Close is a no-op.
func (DiscardReducer) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// SerializedPairLen returns the exact IFile bytes one intermediate record
// occupies for the given data type and payload sizes: the type's own wire
// framing (BytesWritable's 4-byte length or Text's vint) plus IFile's two
// vint record-length headers.
func SerializedPairLen(dataType string, keySize, valueSize int) (int, error) {
	var kl, vl int
	switch dataType {
	case "BytesWritable":
		kl, vl = 4+keySize, 4+valueSize
	case "Text":
		kl = writable.VLongEncodedLen(int64(keySize)) + keySize
		vl = writable.VLongEncodedLen(int64(valueSize)) + valueSize
	default:
		return 0, fmt.Errorf("microbench: unsupported data type %q", dataType)
	}
	return writable.VLongEncodedLen(int64(kl)) + writable.VLongEncodedLen(int64(vl)) + kl + vl, nil
}

// RawPairLen returns the raw serialized bytes of one intermediate record —
// the type's own wire framing but no IFile record-length headers. This is
// what Hadoop's (and localrun's) MAP_OUTPUT_BYTES counter charges per pair.
func RawPairLen(dataType string, keySize, valueSize int) (int, error) {
	switch dataType {
	case "BytesWritable":
		return 4 + keySize + 4 + valueSize, nil
	case "Text":
		return writable.VLongEncodedLen(int64(keySize)) + keySize +
			writable.VLongEncodedLen(int64(valueSize)) + valueSize, nil
	default:
		return 0, fmt.Errorf("microbench: unsupported data type %q", dataType)
	}
}
