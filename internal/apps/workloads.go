package apps

import (
	"bytes"
	"regexp"
	"slices"
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
type SumReducer struct {
	sum writable.LongWritable
}

func (r *SumReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	r.sum.Value = 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		r.sum.Value += v.(*writable.LongWritable).Value
	}
	return out.Collect(key, &r.sum)
}

func (*SumReducer) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

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
	line := value.(*writable.Text).Data
	// A pattern that is one plain literal, as the default is, matches
	// where bytes.Index finds it, without regexp's per-line result slice.
	// LiteralPrefix alone is not proof: it also reports complete for a
	// literal anchored at both ends (^data$), so the pattern's source must
	// be the quoted literal itself. regexp has no call that searches from
	// an offset, so any other pattern goes through FindAll, which sees the
	// whole line for its anchors.
	if lit, complete := m.Re.LiteralPrefix(); complete && lit != "" && regexp.QuoteMeta(lit) == m.Re.String() {
		sep := []byte(lit)
		for i := bytes.Index(line, sep); i >= 0; i = bytes.Index(line, sep) {
			m.match.Data = line[i : i+len(sep)]
			if err := out.Collect(&m.match, &m.one); err != nil {
				return err
			}
			line = line[i+len(sep):]
		}
		return nil
	}
	for _, match := range m.Re.FindAll(line, -1) {
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
// makes the output independent of shuffle merge order. The postings and
// their rendering live in buffers reused from group to group.
type InvIndexReducer struct {
	postings []int64
	list     writable.Text
}

func (r *InvIndexReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	r.postings = r.postings[:0]
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.ParseInt(string(v.(*writable.Text).Data), 10, 64)
		if err != nil {
			return errf("invindex: bad posting %q: %v", v.(*writable.Text).Data, err)
		}
		r.postings = append(r.postings, n)
	}
	r.list.Data = appendPostings(r.list.Data[:0], r.postings)
	return out.Collect(key, &r.list)
}

func (*InvIndexReducer) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// JoinPostings renders a posting list in canonical form: sorted ascending,
// deduplicated, comma-separated.
func JoinPostings(postings []int64) string { return string(appendPostings(nil, postings)) }

// appendPostings sorts postings in place and appends their canonical form
// to out.
func appendPostings(out []byte, postings []int64) []byte {
	slices.Sort(postings)
	for i, p := range postings {
		if i > 0 && p == postings[i-1] {
			continue
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, p, 10)
	}
	return out
}
