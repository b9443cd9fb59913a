package apps

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"mrmicro/internal/inputformat"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
	"mrmicro/internal/xxh64"
)

// The TPCx-HS-style pipeline: HSGen deterministically synthesizes rows
// (teragen-shaped: a 10-char random key, a tab, a 36-char payload carrying
// the row id), HSSort total-order-sorts them, HSValidate proves the sorted
// output is a permutation of the generated rows in globally ascending key
// order — failing the job loudly on any ordering or digest violation.

// Conf keys the validate stage reads its expectations from. They ride a
// config's ExtraConf, so repro flags carry them to distrun workers intact.
const (
	ConfHSRows = "mrmicro.hs.rows" // total generated rows
	ConfHSSeed = "mrmicro.hs.seed" // generator seed
)

const hsKeyLen = 10

// hsAlphabet: 64 printable chars, no tab/newline/space, single-byte — so
// lexicographic byte order (what CompareText and the raw sort use) is the
// row key order and keys embed safely in space-separated summaries.
const hsAlphabet = "+/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

func hsMix(seed, n int64) uint64 {
	z := uint64(seed) ^ uint64(n)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9B1
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// The row renderer appends to a caller's buffer and never goes through fmt:
// HSGen, the "hs:" scheme and HSDigest render every row through it, so a
// row costs no allocation anywhere it is produced. HSRowKey, HSRowValue and
// HSLine are string wrappers over it for tests and tools.

// appendHSKey appends row n's 10-char sort key.
func appendHSKey(dst []byte, seed, row int64) []byte {
	r := hsMix(seed, 2*row)
	// 10 chars need 60 bits; the top nibble recycles mixed low bits.
	for i := 0; i < hsKeyLen; i++ {
		dst = append(dst, hsAlphabet[r&63])
		r >>= 6
	}
	return dst
}

// hsDigitPairs holds "00" through "99": the row id renders two digits per
// step.
var hsDigitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = '0'+byte(i/10), '0'+byte(i%10)
	}
	return t
}()

// appendHSValue appends row n's payload: the row id (the permutation
// witness) zero-padded to 20 digits, then 16 hex filler chars — fmt's
// "%020d%016x", byte for byte.
func appendHSValue(dst []byte, seed, row int64) []byte {
	var digits [20]byte // |row| has at most 19 digits
	n, u := len(digits), uint64(row)
	if row < 0 {
		dst = append(dst, '-') // %020d pads after the sign
		n, u = n-1, -u
	}
	i := n
	for ; u >= 10; u /= 100 {
		i -= 2
		r := u % 100
		digits[i], digits[i+1] = hsDigitPairs[2*r], hsDigitPairs[2*r+1]
	}
	if u > 0 || i == n { // an odd leading digit, or row 0's one "0"
		i--
		digits[i] = '0' + byte(u)
	}
	dst = append(dst, "00000000000000000000"[:i]...)
	dst = append(dst, digits[i:n]...)
	var hex [16]byte
	for j, h := len(hex)-1, hsMix(seed, 2*row+1); j >= 0; j, h = j-1, h>>4 {
		hex[j] = "0123456789abcdef"[h&15]
	}
	return append(dst, hex[:]...)
}

// appendHSLine appends row n as it appears on disk (no terminator).
func appendHSLine(dst []byte, seed, row int64) []byte {
	dst = appendHSKey(dst, seed, row)
	dst = append(dst, '\t')
	return appendHSValue(dst, seed, row)
}

// HSRowKey is row n's 10-char sort key.
func HSRowKey(seed, row int64) string { return string(appendHSKey(nil, seed, row)) }

// HSRowValue is row n's payload.
func HSRowValue(seed, row int64) string { return string(appendHSValue(nil, seed, row)) }

// HSLine renders row n as it appears on disk (no terminator).
func HSLine(seed, row int64) string { return string(appendHSLine(nil, seed, row)) }

// HSRowDigest hashes one row's line (no terminator) with XXH64, seed 0.
func HSRowDigest(line []byte) uint64 { return xxh64.Sum64(line) }

// HSDigest is the order-insensitive dataset digest: the wrapping sum of the
// per-row digests. Any process can recompute it from (seed, rows) alone,
// which is how HSValidate knows what the sorted output must add up to. A
// wrapping sum does not depend on the order of its terms, so summing the
// rows in per-CPU slices gives the same value as one serial pass.
func HSDigest(seed, rows int64) uint64 {
	workers := int64(runtime.GOMAXPROCS(0))
	per := (rows + workers - 1) / workers
	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := int64(0); w*per < rows; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = hsDigestRange(seed, w*per, min((w+1)*per, rows))
		}()
	}
	wg.Wait()
	var sum uint64
	for _, s := range sums {
		sum += s
	}
	return sum
}

// hsDigestRange sums the row digests of rows [lo, hi).
func hsDigestRange(seed, lo, hi int64) uint64 {
	var buf [64]byte // a rendered row is at most 48 bytes
	var sum uint64
	for row := lo; row < hi; row++ {
		sum += HSRowDigest(appendHSLine(buf[:0], seed, row))
	}
	return sum
}

// RowInput carves a synthetic row range into one split per map: split m
// covers rows [m·RowsPerMap, (m+1)·RowsPerMap). Records are (LongWritable
// row id, NullWritable) — HSGen's mapper renders the actual row.
type RowInput struct {
	Maps       int
	RowsPerMap int64
}

type rowSplit struct{ start, count int64 }

func (s *rowSplit) Length() int64 { return 0 }

func (in *RowInput) Splits(*mapreduce.Conf) ([]mapreduce.InputSplit, error) {
	if in.Maps < 1 || in.RowsPerMap < 1 {
		return nil, errf("RowInput needs positive maps and rows per map")
	}
	splits := make([]mapreduce.InputSplit, in.Maps)
	for m := range splits {
		splits[m] = &rowSplit{start: int64(m) * in.RowsPerMap, count: in.RowsPerMap}
	}
	return splits, nil
}

func (in *RowInput) Reader(split mapreduce.InputSplit, _ *mapreduce.Conf) (mapreduce.RecordReader, error) {
	s, ok := split.(*rowSplit)
	if !ok {
		return nil, errf("RowInput got foreign split %T", split)
	}
	return &rowReader{next: s.start, end: s.start + s.count}, nil
}

type rowReader struct {
	next, end int64
	key       writable.LongWritable
}

func (r *rowReader) Next() (writable.Writable, writable.Writable, bool, error) {
	if r.next >= r.end {
		return nil, nil, false, nil
	}
	r.key.Value = r.next
	r.next++
	return &r.key, writable.NullWritable{}, true, nil
}

func (r *rowReader) Close() error { return nil }

// HSGenMapper renders (key, payload) for each row id. Map-only: the job's
// output commits one part file per map, rows in id order. It re-renders
// the same two Texts row after row: a Collector consumes both before it
// returns.
type HSGenMapper struct {
	Seed int64

	key, val writable.Text
}

func (m *HSGenMapper) Map(key, _ writable.Writable, out mapreduce.Collector, _ mapreduce.Reporter) error {
	row := key.(*writable.LongWritable).Value
	m.key.Data = appendHSKey(m.key.Data[:0], m.Seed, row)
	m.val.Data = appendHSValue(m.val.Data[:0], m.Seed, row)
	return out.Collect(&m.key, &m.val)
}

func (m *HSGenMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// HSSortMapper splits each generated line at its tab into (key, payload).
// The job's total-order partitioner plus the engines' sorted merge do the
// actual sorting; mapreduce.IdentityReducer writes rows back out. The two
// Texts it emits are views into the reader's line, valid until Collect
// returns.
type HSSortMapper struct {
	key, val writable.Text
}

func (m *HSSortMapper) Map(_, value writable.Writable, out mapreduce.Collector, _ mapreduce.Reporter) error {
	line := value.(*writable.Text).Data
	i := bytes.IndexByte(line, '\t')
	if i < 0 {
		return errf("hssort: record without tab separator: %q", line)
	}
	m.key.Data, m.val.Data = line[:i], line[i+1:]
	return out.Collect(&m.key, &m.val)
}

func (m *HSSortMapper) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// HSKeySampleFormat adapts sorted-input sampling: it wraps the stage's text
// input but yields the HS key as the record key, so
// mapreduce.SampleSplitPoints draws cut points in the map-output key space.
type HSKeySampleFormat struct {
	Inner mapreduce.InputFormat
}

func (f *HSKeySampleFormat) Splits(conf *mapreduce.Conf) ([]mapreduce.InputSplit, error) {
	return f.Inner.Splits(conf)
}

func (f *HSKeySampleFormat) Reader(split mapreduce.InputSplit, conf *mapreduce.Conf) (mapreduce.RecordReader, error) {
	r, err := f.Inner.Reader(split, conf)
	if err != nil {
		return nil, err
	}
	return &hsKeyReader{inner: r}, nil
}

type hsKeyReader struct {
	inner mapreduce.RecordReader
	key   writable.Text
}

func (r *hsKeyReader) Next() (writable.Writable, writable.Writable, bool, error) {
	_, v, ok, err := r.inner.Next()
	if !ok || err != nil {
		return nil, nil, false, err
	}
	line := v.(*writable.Text).Data
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		line = line[:i]
	}
	r.key.Data = line
	return &r.key, writable.NullWritable{}, true, nil
}

func (r *hsKeyReader) Close() error { return r.inner.Close() }

// HSValidateMapper checks one split's rows are internally sorted and
// summarizes them: (first key, last key, row count, digest sum), keyed by
// the split's first corpus-global offset so the single reducer receives
// summaries in concatenation order. An out-of-order row fails the map task
// — and therefore the job — immediately.
type HSValidateMapper struct {
	firstOffset int64
	first, last []byte
	count       int64
	sum         uint64
}

func (m *HSValidateMapper) Map(key, value writable.Writable, _ mapreduce.Collector, _ mapreduce.Reporter) error {
	line := value.(*writable.Text).Data
	i := bytes.IndexByte(line, '\t')
	if i < 0 {
		return errf("hsvalidate: record without tab separator: %q", line)
	}
	k := line[:i]
	if m.count == 0 {
		m.firstOffset = key.(*writable.LongWritable).Value
		m.first = append([]byte(nil), k...)
	} else if bytes.Compare(m.last, k) > 0 {
		return errf("hsvalidate: rows out of order at offset %d: %q after %q",
			key.(*writable.LongWritable).Value, k, m.last)
	}
	m.last = append(m.last[:0], k...)
	m.count++
	m.sum += HSRowDigest(line)
	return nil
}

func (m *HSValidateMapper) Close(out mapreduce.Collector, _ mapreduce.Reporter) error {
	if m.count == 0 {
		return nil
	}
	summary := fmt.Sprintf("%s %s %d %d", m.first, m.last, m.count, m.sum)
	return out.Collect(writable.NewText(fmt.Sprintf("%024d", m.firstOffset)), writable.NewText(summary))
}

// HSValidateReducer (always a single reduce task) walks the split summaries
// in ascending offset order, proving the cross-split and cross-part key
// chain ascends and the totals match the generator: exactly Rows rows whose
// digests sum to HSDigest(Seed, Rows). Any violation is a job failure.
type HSValidateReducer struct {
	Rows int64
	Seed int64

	prevLast []byte
	total    int64
	sum      uint64
	parts    int
}

func (r *HSValidateReducer) Reduce(key writable.Writable, values mapreduce.ValueIterator, _ mapreduce.Collector, _ mapreduce.Reporter) error {
	for {
		v, ok := values.Next()
		if !ok {
			return nil
		}
		var first, last string
		var count int64
		var sum uint64
		if _, err := fmt.Sscanf(string(v.(*writable.Text).Data), "%s %s %d %d", &first, &last, &count, &sum); err != nil {
			return errf("hsvalidate: malformed summary %q: %v", v.(*writable.Text).Data, err)
		}
		if r.parts > 0 && bytes.Compare(r.prevLast, []byte(first)) > 0 {
			return errf("hsvalidate: ordering violation across split boundary %s: %q after %q",
				inputformat.Render(key), first, r.prevLast)
		}
		r.prevLast = []byte(last)
		r.total += count
		r.sum += sum
		r.parts++
	}
}

func (r *HSValidateReducer) Close(out mapreduce.Collector, _ mapreduce.Reporter) error {
	if r.total != r.Rows {
		return errf("hsvalidate: %d rows in sorted output, generator wrote %d", r.total, r.Rows)
	}
	if want := HSDigest(r.Seed, r.Rows); r.sum != want {
		return errf("hsvalidate: digest sum %016x != generated %016x (rows corrupted or substituted)", r.sum, want)
	}
	return out.Collect(writable.NewText("hsvalidate"),
		writable.NewText(fmt.Sprintf("ok rows=%d splits=%d digest=%016x", r.total, r.parts, r.sum)))
}

// The "hs:" input scheme materializes HSGen's exact output without running
// the job: file m holds rows [m·rows, (m+1)·rows) in id order, named like a
// committed part. mrcheck's chained-pipeline invariant leans on the
// byte-identity: sorting a chained gen-stage output directory and sorting
// an "hs:" materialization of the same (seed, maps, rows) must digest
// equally.
func init() {
	inputformat.RegisterScheme("hs", func(params, dir string) error {
		spec, err := ParseHSSpec(params)
		if err != nil {
			return err
		}
		var buf []byte
		for m := int64(0); m < spec.Maps; m++ {
			buf = buf[:0]
			for i := int64(0); i < spec.Rows; i++ {
				buf = append(appendHSLine(buf, spec.Seed, m*spec.Rows+i), '\n')
			}
			name := filepath.Join(dir, inputformat.PartName(int(m)))
			if err := os.WriteFile(name, buf, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
}

// HSSpec is the parameter list of an "hs:" input spec: Maps files of Rows
// generated rows each.
type HSSpec struct{ Seed, Maps, Rows int64 }

// ParseHSSpec parses "seed=S,maps=M,rows=R" (what follows "hs:").
func ParseHSSpec(params string) (HSSpec, error) {
	var s HSSpec
	err := inputformat.ParseKVs(params, func(k, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		switch k {
		case "seed":
			s.Seed = n
		case "maps":
			s.Maps = n
		case "rows":
			s.Rows = n
		default:
			return errf("unknown parameter %q", k)
		}
		return err
	})
	if err == nil && (s.Maps < 1 || s.Rows < 1) {
		err = errf("hs spec %q needs positive maps and rows", params)
	}
	return s, err
}
