package localrun

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// tailJob is a Text/Text job whose reduce output lands in memory.
func tailJob(reducer mapreduce.Reducer) (*mapreduce.Job, *mapreduce.MemoryOutput) {
	out := &mapreduce.MemoryOutput{}
	return &mapreduce.Job{
		Name:               "reduce-tail",
		Conf:               mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, 1).SetInt(mapreduce.ConfNumReduces, 4),
		Mapper:             func() mapreduce.Mapper { return mapreduce.IdentityMapper{} },
		Reducer:            func() mapreduce.Reducer { return reducer },
		Output:             out,
		MapOutputKeyType:   "Text",
		MapOutputValueType: "Text",
	}, out
}

// textSegment serializes key/value strings, in the order given, as one
// segment of Text records.
func textSegment(kvs ...[2]string) *kvbuf.Segment {
	w := kvbuf.NewWriter(0)
	for _, kv := range kvs {
		w.Append(writable.Marshal(writable.NewText(kv[0])), writable.Marshal(writable.NewText(kv[1])))
	}
	return w.Close()
}

func renderPairs(out *mapreduce.MemoryOutput, r int) string {
	var b strings.Builder
	for _, p := range out.Pairs(r) {
		fmt.Fprintf(&b, "%v=%v\n", p.Key, p.Value)
	}
	return b.String()
}

// TestReduceTailRejectsMisSortedSegment: order validation happens inline, at
// group boundaries, on both entrances to the tail — a mis-sorted input is an
// error naming the reduce, never silent output.
func TestReduceTailRejectsMisSortedSegment(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	build := func() []*kvbuf.Segment {
		return []*kvbuf.Segment{
			textSegment([2]string{"a", "1"}, [2]string{"c", "2"}),
			textSegment([2]string{"b", "3"}, [2]string{"d", "4"}, [2]string{"a", "late"}),
		}
	}
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: mis-sorted segment reduced without error", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "reduce 3") || !strings.Contains(msg, "out of order") {
			t.Errorf("%s: error %q does not name the reduce and the disorder", name, msg)
		}
	}
	ident := mapreduce.IdentityReducer{KeyType: "Text", ValueType: "Text"}

	job, _ := tailJob(ident)
	ctrs := mapreduce.NewCounters()
	check("parts", reduceOverParts(job, 3, cmp, build(), 2, ctrs, mapreduce.NullReporter{}))
	// The deferred tally reports what the failed pass consumed before it
	// tripped: a1 c2 | b3 d4 merge to a b c d, then "a" again.
	if got := ctrs.Task(mapreduce.CtrReduceInputRecords); got != 4 {
		t.Errorf("failed pass tallied %d input records, want 4", got)
	}

	job, _ = tailJob(ident)
	var inputs []mergeInput
	for i, s := range build() {
		inputs = append(inputs, mergeInput{lo: i, hi: i + 1, seg: s})
	}
	rdir := &runDir{}
	defer rdir.removeAll()
	check("inputs", reduceOverInputs(job, 3, cmp, inputs, 2, 10, rdir, &mergeTimings{}, mapreduce.NewCounters(), mapreduce.NullReporter{}))
}

// partialReader reads at most `read` values of each group, emitting the
// key with the count it saw.
type partialReader struct{ read int }

func (f partialReader) Reduce(k writable.Writable, vs mapreduce.ValueIterator, out mapreduce.Collector, _ mapreduce.Reporter) error {
	n := 0
	for ; n < f.read; n++ {
		if _, ok := vs.Next(); !ok {
			break
		}
	}
	return out.Collect(writable.NewText(k.(*writable.Text).String()), &writable.LongWritable{Value: int64(n)})
}

func (partialReader) Close(mapreduce.Collector, mapreduce.Reporter) error { return nil }

// TestReduceTailCountsUnreadValues: a reducer that stops reading a group
// early — or never reads it — still leaves exact input counters, and the next
// group starts at the right record.
func TestReduceTailCountsUnreadValues(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	for _, read := range []int{0, 1, 2, 100} {
		job, out := tailJob(partialReader{read: read})
		parts := []*kvbuf.Segment{
			textSegment([2]string{"a", "1"}, [2]string{"a", "2"}, [2]string{"b", "3"}, [2]string{"c", "4"}),
			textSegment([2]string{"a", "5"}, [2]string{"c", "6"}, [2]string{"c", "7"}, [2]string{"c", "8"}),
		}
		ctrs := mapreduce.NewCounters()
		if err := reduceOverParts(job, 0, cmp, parts, 2, ctrs, mapreduce.NullReporter{}); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]int64{
			mapreduce.CtrReduceInputRecords:  8,
			mapreduce.CtrReduceInputGroups:   3,
			mapreduce.CtrReduceOutputRecords: 3,
			mapreduce.CtrMergedMapOutputs:    2,
		} {
			if got := ctrs.Task(name); got != want {
				t.Errorf("read=%d: %s = %d, want %d", read, name, got, want)
			}
		}
		want := fmt.Sprintf("a=%d\nb=%d\nc=%d\n", min(read, 3), min(read, 1), min(read, 4))
		if got := renderPairs(out, 0); got != want {
			t.Errorf("read=%d: output %q, want %q", read, got, want)
		}
	}
}

// TestReduceTailsAgree: the in-memory entrance and the bounded entrance (flat,
// and forced through intermediate disk passes) are one tail — same output in
// the same order, equal-key ties broken by map position, same counters.
func TestReduceTailsAgree(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	const maps = 7
	build := func() []*kvbuf.Segment {
		rng := rand.New(rand.NewSource(11))
		segs := make([]*kvbuf.Segment, maps)
		for m := range segs {
			keys := make([]string, 40+rng.Intn(40))
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%02d", rng.Intn(25)) // heavy cross-map duplication
			}
			sort.Strings(keys)
			kvs := make([][2]string, len(keys))
			for i, k := range keys {
				kvs[i] = [2]string{k, fmt.Sprintf("m%d.%d", m, i)}
			}
			segs[m] = textSegment(kvs...)
		}
		return segs
	}
	ident := mapreduce.IdentityReducer{KeyType: "Text", ValueType: "Text"}

	job, out := tailJob(ident)
	wantCtrs := mapreduce.NewCounters()
	if err := reduceOverParts(job, 1, cmp, build(), maps, wantCtrs, mapreduce.NullReporter{}); err != nil {
		t.Fatal(err)
	}
	want := renderPairs(out, 1)
	if strings.Count(want, "\n") < 40*maps {
		t.Fatalf("reference output has only %d records", strings.Count(want, "\n"))
	}

	for _, factor := range []int{100, 2} {
		job, out := tailJob(ident)
		var inputs []mergeInput
		for i, s := range build() {
			inputs = append(inputs, mergeInput{lo: i, hi: i + 1, seg: s})
		}
		rdir, tm, ctrs := &runDir{}, &mergeTimings{}, mapreduce.NewCounters()
		err := reduceOverInputs(job, 1, cmp, inputs, maps, factor, rdir, tm, ctrs, mapreduce.NullReporter{})
		rdir.removeAll()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPairs(out, 1); got != want {
			t.Errorf("factor %d: bounded tail's output differs from the in-memory tail's", factor)
		}
		if got, want := ctrs.String(), wantCtrs.String(); got != want {
			t.Errorf("factor %d: counters differ:\n%s\nwant:\n%s", factor, got, want)
		}
		if passes := tm.diskPasses.Load(); (passes > 0) != (factor < maps) {
			t.Errorf("factor %d: %d intermediate disk passes", factor, passes)
		}
	}
}

// TestCollectAllocatesNothing guards the map side of the record path: a
// mapper re-emitting the same Text pair costs zero allocations per record.
func TestCollectAllocatesNothing(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	pf, _ := writable.PrefixExtractor("Text")
	buf := kvbuf.NewSortBuffer(8<<20, 4, cmp)
	buf.SetPrefixFunc(pf)
	defer buf.Release()
	mc := &mapCollector{
		part:       mapreduce.HashPartitioner{},
		buf:        buf,
		numReduces: 4,
		spillPct:   0.8,
		ctrs:       mapreduce.NewCounters(),
		enc:        writable.NewDataOutput(256),
		tm:         &spillTimings{},
	}
	k, v := writable.NewText("0123456789"), writable.NewText("abcdefghij")
	// Grow the slab and metadata arrays past what the measured run needs.
	const records = 20000
	for i := 0; i < 2*records; i++ {
		if err := mc.Collect(k, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if avg := testing.AllocsPerRun(records, func() {
		if err := mc.Collect(k, v); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Collect allocates %.2f times per record, want 0", avg)
	}
	if mc.outRecords != 3*records+1 || mc.outBytes != mc.outRecords*22 {
		t.Errorf("tallies: %d records, %d bytes", mc.outRecords, mc.outBytes)
	}
}

// TestValueIteratorAllocatesNothing guards the reduce side: pulling the next
// value off the streaming merge decodes into reused state only.
func TestValueIteratorAllocatesNothing(t *testing.T) {
	cmp, _ := writable.Comparator("Text")
	const records = 20000
	srcs := make([]kvbuf.RecordSource, 4)
	for s := range srcs {
		kvs := make([][2]string, records/len(srcs)+1)
		for i := range kvs {
			kvs[i] = [2]string{"the-only-key", "abcdefghij"}
		}
		srcs[s] = textSegment(kvs...).NewReader()
	}
	merger, err := kvbuf.NewSourceMerger(cmp, srcs)
	if err != nil {
		t.Fatal(err)
	}
	it, err := newMergedValueIter(merger, cmp, "Text")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := it.beginGroup(new(writable.Text)); !ok || err != nil {
		t.Fatal(ok, err)
	}
	it.Next() // sizes the reused value's buffer
	if avg := testing.AllocsPerRun(records-10, func() {
		if _, ok := it.Next(); !ok {
			t.Fatal("group ended early")
		}
	}); avg != 0 {
		t.Errorf("ValueIterator.Next allocates %.2f times per record, want 0", avg)
	}
}
