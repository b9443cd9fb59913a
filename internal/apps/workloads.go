package apps

import (
	"regexp"
	"sort"
	"strconv"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// The mappers below re-emit instances they own and the reducers emit the
// group key they were handed: a Collector consumes key and value before it
// returns (see mapreduce.Collector), so nothing is copied or allocated per
// record.

// WordCountMapper tokenizes each line and emits (word, 1).
type WordCountMapper struct {
	word writable.Text
	one  writable.LongWritable
}

func (m *WordCountMapper) Map(_, value writable.Writable, out mapreduce.Collector, _ mapreduce.Reporter) error {
	m.one.Value = 1
	return eachWord(value.(*writable.Text).Data, func(w []byte) error {
		m.word.Data = appendLower(m.word.Data[:0], w)
		return out.Collect(&m.word, &m.one)
	})
}

func (m *WordCountMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// SumReducer folds LongWritable counts — the reducer for wordcount and
// grep, and (being associative and commutative) also their combiner.
type SumReducer struct{}

func (SumReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	var sum int64
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		sum += v.(*writable.LongWritable).Value
	}
	return out.Collect(key, &writable.LongWritable{Value: sum})
}

func (SumReducer) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// GrepMapper emits (match, 1) for every occurrence of its pattern, like
// Hadoop's grep example's map side. Most lines match nothing, so the
// shuffle carries a small fraction of the input — the map-heavy profile.
type GrepMapper struct {
	Re *regexp.Regexp

	match writable.Text
	one   writable.LongWritable
}

func (m *GrepMapper) Map(_, value writable.Writable, out mapreduce.Collector, _ mapreduce.Reporter) error {
	m.one.Value = 1
	for _, match := range m.Re.FindAll(value.(*writable.Text).Data, -1) {
		m.match.Data = match
		if err := out.Collect(&m.match, &m.one); err != nil {
			return err
		}
	}
	return nil
}

func (m *GrepMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// InvIndexMapper emits (word, posting) where the posting is the record's
// corpus-global line offset (the key inputformat's reader supplies) — a
// stable document position independent of how the corpus was split.
type InvIndexMapper struct {
	word, posting writable.Text
}

func (m *InvIndexMapper) Map(key, value writable.Writable, out mapreduce.Collector, _ mapreduce.Reporter) error {
	m.posting.Data = strconv.AppendInt(m.posting.Data[:0], key.(*writable.LongWritable).Value, 10)
	return eachWord(value.(*writable.Text).Data, func(w []byte) error {
		m.word.Data = appendLower(m.word.Data[:0], w)
		return out.Collect(&m.word, &m.posting)
	})
}

func (m *InvIndexMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// InvIndexReducer collects a word's postings, sorts them numerically, and
// dedupes (a word twice on one line is one posting) — the canonical order
// makes the output independent of shuffle merge order.
type InvIndexReducer struct{}

func (InvIndexReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	var postings []int64
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.ParseInt(string(v.(*writable.Text).Data), 10, 64)
		if err != nil {
			return errf("invindex: bad posting %q: %v", v.(*writable.Text).Data, err)
		}
		postings = append(postings, n)
	}
	return out.Collect(key, writable.NewText(JoinPostings(postings)))
}

func (InvIndexReducer) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// JoinPostings renders a posting list in canonical form: sorted ascending,
// deduplicated, comma-separated.
func JoinPostings(postings []int64) string {
	if len(postings) == 0 {
		return ""
	}
	sortInt64s(postings)
	out := make([]byte, 0, len(postings)*4)
	var prev int64
	for i, p := range postings {
		if i > 0 && p == prev {
			continue
		}
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, p, 10)
		prev = p
	}
	return string(out)
}

func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
