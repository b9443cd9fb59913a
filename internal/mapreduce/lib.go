package mapreduce

import (
	"strings"

	"mrmicro/internal/writable"
)

// Stock task implementations mirroring Hadoop's org.apache.hadoop.mapreduce.lib
// classes, so common jobs need no custom code.

// IdentityMapper emits every input record unchanged (Hadoop's Mapper base
// behaviour).
type IdentityMapper struct{}

// Map forwards the record.
func (IdentityMapper) Map(k, v writable.Writable, out Collector, _ Reporter) error {
	return out.Collect(k, v)
}

// Close is a no-op.
func (IdentityMapper) Close(Collector, Reporter) error { return nil }

// IdentityReducer re-emits each key with each of its values (Hadoop's
// Reducer base behaviour), as the engine hands them over: the output writer
// consumes both before the iterator reuses them (see Collector).
type IdentityReducer struct{}

// Reduce forwards the group.
func (IdentityReducer) Reduce(k writable.Writable, vs ValueIterator, out Collector, _ Reporter) error {
	for {
		v, ok := vs.Next()
		if !ok {
			return nil
		}
		if err := out.Collect(k, v); err != nil {
			return err
		}
	}
}

// Close is a no-op.
func (IdentityReducer) Close(Collector, Reporter) error { return nil }

// TokenCounterMapper splits Text values into whitespace tokens and emits
// (token, 1), Hadoop's lib.map.TokenCounterMapper.
type TokenCounterMapper struct{}

// Map tokenizes the value.
func (TokenCounterMapper) Map(_, v writable.Writable, out Collector, _ Reporter) error {
	one := &writable.LongWritable{Value: 1}
	for _, tok := range strings.Fields(v.(*writable.Text).String()) {
		if err := out.Collect(writable.NewText(tok), one); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op.
func (TokenCounterMapper) Close(Collector, Reporter) error { return nil }

// LongSumReducer sums LongWritable values per key, Hadoop's
// lib.reduce.LongSumReducer. It doubles as a combiner.
type LongSumReducer struct{}

// Reduce emits (key, sum).
func (LongSumReducer) Reduce(k writable.Writable, vs ValueIterator, out Collector, _ Reporter) error {
	var sum int64
	for {
		v, ok := vs.Next()
		if !ok {
			break
		}
		sum += v.(*writable.LongWritable).Value
	}
	return out.Collect(k, &writable.LongWritable{Value: sum})
}

// Close is a no-op.
func (LongSumReducer) Close(Collector, Reporter) error { return nil }

// WordCountJob assembles the canonical wordcount over a text corpus with
// TokenCounterMapper + LongSumReducer (combiner included) — the two-line
// "hello world" of the library.
func WordCountJob(text string, maps, reduces int, output OutputFormat) *Job {
	return &Job{
		Name: "wordcount",
		Conf: NewConf().
			SetInt(ConfNumMaps, maps).
			SetInt(ConfNumReduces, reduces),
		Mapper:             func() Mapper { return TokenCounterMapper{} },
		Reducer:            func() Reducer { return LongSumReducer{} },
		Combiner:           func() Reducer { return LongSumReducer{} },
		Input:              &TextInput{Text: text},
		Output:             output,
		MapOutputKeyType:   "Text",
		MapOutputValueType: "LongWritable",
	}
}
