package apps

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

func TestTokenize(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       []string
	}{
		{"empty", "", nil},
		{"punctuation only", " .,;!?-- \t", nil},
		{"mixed case", "The quick BROWN fOx", []string{"the", "quick", "brown", "fox"}},
		{"digits", "route 66, 3rd exit; x2", []string{"route", "66", "3rd", "exit", "x2"}},
		{"punctuation splits", "don't stop--believing", []string{"don", "t", "stop", "believing"}},
		{"word at both ends", "a.b", []string{"a", "b"}},
		// Every byte of a multi-byte rune is a separator: no word ever holds a
		// partial rune, whatever the encoding of the input.
		{"non-ASCII bytes", "na\xc3\xafve caf\xc3\xa9 \xff\xfeok", []string{"na", "ve", "caf", "ok"}},
	} {
		if got := Tokenize([]byte(tc.line)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Tokenize(%q) = %q, want %q", tc.name, tc.line, got, tc.want)
		}
	}
	line := []byte("Keep CASE")
	Tokenize(line)
	if string(line) != "Keep CASE" {
		t.Errorf("Tokenize lowered its input in place: %q", line)
	}
}

func TestJoinPostings(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []int64
		want string
	}{
		{"nil", nil, ""},
		{"empty", []int64{}, ""},
		{"single", []int64{7}, "7"},
		{"unsorted", []int64{30, 10, 20}, "10,20,30"},
		{"duplicates", []int64{5, 5, 5}, "5"},
		{"unsorted with duplicates", []int64{40, 0, 40, 12, 0, 1 << 40}, "0,12,40,1099511627776"},
	} {
		if got := JoinPostings(tc.in); got != tc.want {
			t.Errorf("%s: JoinPostings = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParseHSSpec(t *testing.T) {
	for _, tc := range []struct {
		params string
		want   HSSpec
		errHas string // non-empty: must fail with an error containing it
	}{
		{params: "seed=9,maps=3,rows=100", want: HSSpec{Seed: 9, Maps: 3, Rows: 100}},
		{params: "maps=2,rows=5", want: HSSpec{Seed: 0, Maps: 2, Rows: 5}}, // seed omitted = 0
		{params: "rows=5,seed=-4,maps=1", want: HSSpec{Seed: -4, Maps: 1, Rows: 5}},
		{params: "seed=1,maps=2,rows=5,cols=3", errHas: `unknown parameter "cols"`},
		{params: "seed=1,maps=two,rows=5", errHas: "two"},
		{params: "seed=1,rows=5", errHas: "positive maps and rows"},
		{params: "seed=1,maps=2,rows=0", errHas: "positive maps and rows"},
	} {
		got, err := ParseHSSpec(tc.params)
		switch {
		case tc.errHas == "" && err != nil:
			t.Errorf("ParseHSSpec(%q): %v", tc.params, err)
		case tc.errHas == "" && got != tc.want:
			t.Errorf("ParseHSSpec(%q) = %+v, want %+v", tc.params, got, tc.want)
		case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
			t.Errorf("ParseHSSpec(%q): err = %v, want one containing %q", tc.params, err, tc.errHas)
		}
	}
}

// values iterates a fixed list, as the reduce side hands a key group over.
type values []writable.Writable

func (v *values) Next() (writable.Writable, bool) {
	if len(*v) == 0 {
		return nil, false
	}
	next := (*v)[0]
	*v = (*v)[1:]
	return next, true
}

// hsValidate runs the validate stage by hand: each split's lines through one
// HSValidateMapper (keyed by corpus-global offset), the summaries through
// the single HSValidateReducer in offset order.
func hsValidate(seed, rows int64, splits ...[]string) (string, error) {
	type summary struct{ key, value string }
	var summaries []summary
	var offset int64
	for _, lines := range splits {
		m := &HSValidateMapper{}
		for _, line := range lines {
			if err := m.Map(&writable.LongWritable{Value: offset}, writable.NewText(line), nil, mapreduce.NullReporter{}); err != nil {
				return "", err
			}
			offset += int64(len(line)) + 1
		}
		err := m.Close(mapreduce.CollectorFunc(func(k, v writable.Writable) error {
			summaries = append(summaries, summary{string(k.(*writable.Text).Data), string(v.(*writable.Text).Data)})
			return nil
		}), mapreduce.NullReporter{})
		if err != nil {
			return "", err
		}
	}
	sort.Slice(summaries, func(i, j int) bool { return summaries[i].key < summaries[j].key })
	r := &HSValidateReducer{Rows: rows, Seed: seed}
	for _, s := range summaries {
		if err := r.Reduce(writable.NewText(s.key), &values{writable.NewText(s.value)}, nil, mapreduce.NullReporter{}); err != nil {
			return "", err
		}
	}
	var verdict string
	err := r.Close(mapreduce.CollectorFunc(func(_, v writable.Writable) error {
		verdict = string(v.(*writable.Text).Data)
		return nil
	}), mapreduce.NullReporter{})
	return verdict, err
}

func TestHSValidate(t *testing.T) {
	const seed, rows = 11, 40
	sorted := make([]string, rows)
	for i := range sorted {
		sorted[i] = HSLine(seed, int64(i))
	}
	sort.Strings(sorted) // the key leads the line, so line order is key order
	edit := func(f func(lines []string) []string) []string {
		return f(append([]string(nil), sorted...))
	}

	for _, tc := range []struct {
		name   string
		rows   int64 // rows the generator is said to have written; 0 = all of them
		splits [][]string
		errHas string // empty: must pass
	}{
		{name: "one split in order", splits: [][]string{sorted}},
		{name: "three splits in order", splits: [][]string{sorted[:7], sorted[7:8], sorted[8:]}},
		{name: "an empty split among them", splits: [][]string{sorted[:20], nil, sorted[20:]}},
		{name: "out of order inside a split", errHas: "rows out of order",
			splits: [][]string{edit(func(l []string) []string { l[3], l[4] = l[4], l[3]; return l })}},
		{name: "out of order across a split boundary", errHas: "ordering violation across split boundary",
			splits: [][]string{sorted[20:], sorted[:20]}},
		{name: "duplicated row", errHas: "41 rows in sorted output, generator wrote 40",
			splits: [][]string{edit(func(l []string) []string { return append(l[:6], l[5:]...) })}},
		{name: "missing row", errHas: "39 rows in sorted output, generator wrote 40",
			splits: [][]string{edit(func(l []string) []string { return append(l[:5], l[6:]...) })}},
		{name: "one row substituted by its neighbour's duplicate", errHas: "digest sum",
			splits: [][]string{edit(func(l []string) []string { l[6] = l[5]; return l })}},
		{name: "rows of another seed", rows: 1, errHas: "digest sum",
			splits: [][]string{{HSLine(seed+1, 0)}}},
		{name: "record without a tab", errHas: "without tab separator",
			splits: [][]string{{"no-separator-here"}}},
	} {
		if tc.rows == 0 {
			tc.rows = rows
		}
		verdict, err := hsValidate(seed, tc.rows, tc.splits...)
		switch {
		case tc.errHas == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.errHas == "" && !strings.HasPrefix(verdict, "ok rows=40 "):
			t.Errorf("%s: verdict %q", tc.name, verdict)
		case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.errHas)
		}
	}
}

// TestWordMappersAllocateNothing: wordcount's and inverted-index's mappers
// re-emit the Texts they own, so a line costs no allocation per word.
func TestWordMappersAllocateNothing(t *testing.T) {
	discard := mapreduce.CollectorFunc(func(_, _ writable.Writable) error { return nil })
	offset := &writable.LongWritable{Value: 1234}
	line := writable.NewText("The quick BROWN fox, 3rd of 7 foxes")
	for _, m := range []mapreduce.Mapper{&WordCountMapper{}, &InvIndexMapper{}} {
		if n := testing.AllocsPerRun(100, func() {
			if err := m.Map(offset, line, discard, mapreduce.NullReporter{}); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%T.Map: %v allocs per line, want 0", m, n)
		}
	}
}
