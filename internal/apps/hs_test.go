package apps

import (
	"fmt"
	"math"
	"runtime"
	"testing"

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
// over, the digest is the one serial pass's wrapping sum — including row
// counts of zero and fewer rows than CPUs.
func TestHSDigestSplitIsSerialSum(t *testing.T) {
	const seed = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rows := range []int64{0, 1, 5, 49169} {
		want := hsDigestRange(seed, 0, rows)
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
// sorted value through HSSort's identity reducer — allocates nothing per
// row.
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
}
