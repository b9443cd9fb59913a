package apps

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mrmicro/internal/inputformat"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// TestHSValueMatchesFmt holds the renderer to the fmt verbs it replaced on
// the rows the golden file does not reach: negative ids (the sign goes
// before the zero padding) and both ends of int64.
func TestHSValueMatchesFmt(t *testing.T) {
	for _, row := range []int64{0, 7, -1, -42, 1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		for _, seed := range []int64{0, -9} {
			want := fmt.Sprintf("%020d%016x", row, hsMix(seed, 2*row+1))
			if got := HSRowValue(seed, row); got != want {
				t.Errorf("HSRowValue(%d, %d) = %q, want %q", seed, row, got, want)
			}
		}
	}
}

// TestHSDigestSplitIsSerialSum: however many CPUs the row range is spread
// over, the digest is one serial pass's wrapping sum of HSRowDigests —
// including row counts of zero, fewer rows than CPUs, and negative row ids,
// whose rows are one byte longer.
func TestHSDigestSplitIsSerialSum(t *testing.T) {
	const seed = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for lo, hi := int64(-6), int64(7); lo < hi; lo++ {
		var want uint64
		for row := lo; row < hi; row++ {
			want += HSRowDigest([]byte(HSLine(seed, row)))
		}
		if got := hsDigestRange(seed, lo, hi); got != want {
			t.Errorf("rows [%d,%d): range sum %016x, serial sum %016x", lo, hi, got, want)
		}
	}
	for _, rows := range []int64{0, 1, 5, 49169} {
		var want uint64
		for row := int64(0); row < rows; row++ {
			want += HSRowDigest([]byte(HSLine(seed, row)))
		}
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			if got := HSDigest(seed, rows); got != want {
				t.Errorf("rows=%d GOMAXPROCS=%d: HSDigest = %016x, serial sum %016x", rows, procs, got, want)
			}
		}
	}
}

// repeatValues hands one value over n times, as the reduce side hands a
// key group over: the same instance every call.
type repeatValues struct {
	v writable.Writable
	n int
}

func (r *repeatValues) Next() (writable.Writable, bool) {
	if r.n == 0 {
		return nil, false
	}
	r.n--
	return r.v, true
}

// TestHSPathAllocatesNothing: the HS stages' per-row code — rendering a
// generated row, splitting a line into key and payload, re-emitting a
// sorted value through HSSort's identity reducer, committing a Text/Text
// row, validating and digesting a sorted line — allocates nothing per row.
func TestHSPathAllocatesNothing(t *testing.T) {
	discard := mapreduce.CollectorFunc(func(_, _ writable.Writable) error { return nil })
	rep := mapreduce.NullReporter{}
	row := &writable.LongWritable{}
	gen := &HSGenMapper{Seed: 3}
	if n := testing.AllocsPerRun(100, func() {
		row.Value++
		if err := gen.Map(row, writable.NullWritable{}, discard, rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("HSGenMapper.Map: %v allocs per row, want 0", n)
	}

	line := &writable.Text{Data: []byte(HSLine(3, 12))}
	sorter := &HSSortMapper{}
	if n := testing.AllocsPerRun(100, func() {
		if err := sorter.Map(row, line, discard, rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("HSSortMapper.Map: %v allocs per row, want 0", n)
	}

	key, val := writable.NewText(HSRowKey(3, 12)), writable.NewText(HSRowValue(3, 12))
	group := &repeatValues{}
	if n := testing.AllocsPerRun(100, func() {
		group.v, group.n = val, 64
		if err := (mapreduce.IdentityReducer{}).Reduce(key, group, discard, rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("IdentityReducer (HSSort's reducer): %v allocs per 64-value group, want 0", n)
	}

	w, err := inputformat.TextOutput{Dir: t.TempDir()}.Writer(mapreduce.NewConf(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if n := testing.AllocsPerRun(3, func() { // 5000 rows cross the buffer's 64 KiB
		for range 5000 {
			if err := w.Write(key, val); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("text part writer: %v allocs per 5000 Text/Text rows, want 0", n)
	}

	validator := &HSValidateMapper{}
	if n := testing.AllocsPerRun(100, func() {
		if err := validator.Map(row, line, discard, rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("HSValidateMapper.Map: %v allocs per row, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { HSRowDigest(line.Data) }); n != 0 {
		t.Errorf("HSRowDigest: %v allocs per row, want 0", n)
	}
}

// BenchmarkHSDigest recomputes the bench hs-pipeline's dataset digest (4
// maps × 100 000 rows), what HSValidateReducer.Close does before it
// accepts the sorted output.
func BenchmarkHSDigest(b *testing.B) {
	const rows = 400000
	b.SetBytes(rows * int64(len(HSLine(1, 0))))
	for b.Loop() {
		HSDigest(1, rows)
	}
}
