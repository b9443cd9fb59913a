package localrun

import (
	"bytes"
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

// tailRunner is the task environment the reduce tail of job runs in, over
// `maps` map outputs at merge fan-in factor.
func tailRunner(job *mapreduce.Job, maps, factor int) *TaskRunner {
	return copyRunner(job.MapOutputKeyType, maps, 1, func(tr *TaskRunner) {
		tr.job, tr.numReduces, tr.factor = job, job.Conf.NumReduces(), factor
	})
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
	ident := mapreduce.IdentityReducer{}

	job, _ := tailJob(ident)
	ctrs := mapreduce.NewCounters()
	check("parts", tailRunner(job, 2, 10).reduceOverParts(3, build(), ctrs, mapreduce.NullReporter{}))
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
	check("inputs", tailRunner(job, 2, 10).reduceOverInputs(3, inputs, rdir, &mergeTimings{}, mapreduce.NewCounters(), mapreduce.NullReporter{}))
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
	for _, read := range []int{0, 1, 2, 100} {
		job, out := tailJob(partialReader{read: read})
		parts := []*kvbuf.Segment{
			textSegment([2]string{"a", "1"}, [2]string{"a", "2"}, [2]string{"b", "3"}, [2]string{"c", "4"}),
			textSegment([2]string{"a", "5"}, [2]string{"c", "6"}, [2]string{"c", "7"}, [2]string{"c", "8"}),
		}
		ctrs := mapreduce.NewCounters()
		if err := tailRunner(job, 2, 10).reduceOverParts(0, parts, ctrs, mapreduce.NullReporter{}); err != nil {
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
	ident := mapreduce.IdentityReducer{}

	job, out := tailJob(ident)
	wantCtrs := mapreduce.NewCounters()
	if err := tailRunner(job, maps, 10).reduceOverParts(1, build(), wantCtrs, mapreduce.NullReporter{}); err != nil {
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
		err := tailRunner(job, maps, factor).reduceOverInputs(1, inputs, rdir, tm, ctrs, mapreduce.NullReporter{})
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
// mapper re-emitting the same pair costs zero allocations per record, for
// 22-byte Text pairs and for 2 KiB BytesWritable pairs that cross a slab
// chunk boundary every 510 records. Collect serialises straight into the
// sort buffer's slab; there is no staging buffer to size.
func TestCollectAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		keyType    string
		k, v       writable.Writable
		pairBytes  int64
		capacityMB int
	}{
		{"Text", writable.NewText("0123456789"), writable.NewText("abcdefghij"), 22, 8},
		{"BytesWritable", &writable.BytesWritable{Data: make([]byte, 1024)}, &writable.BytesWritable{Data: make([]byte, 1024)}, 2056, 256},
	} {
		cmp, _ := writable.Comparator(tc.keyType)
		pf, _ := writable.PrefixExtractor(tc.keyType)
		buf := kvbuf.NewSortBuffer(tc.capacityMB<<20, 4, cmp)
		buf.SetPrefixFunc(pf)
		mc := &mapCollector{
			tr:   &TaskRunner{numReduces: 4, spillPct: 0.8},
			part: mapreduce.HashPartitioner{},
			buf:  buf,
			ctrs: mapreduce.NewCounters(),
			tm:   &spillTimings{},
		}
		// Grow the slab and metadata arrays past what the measured run needs.
		const records = 20000
		for i := 0; i < 2*records; i++ {
			if err := mc.Collect(tc.k, tc.v); err != nil {
				t.Fatal(err)
			}
		}
		buf.Reset()
		if avg := testing.AllocsPerRun(records, func() {
			if err := mc.Collect(tc.k, tc.v); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Collect allocates %.2f times per record, want 0", tc.keyType, avg)
		}
		if mc.outRecords != 3*records+1 || mc.outBytes != mc.outRecords*tc.pairBytes {
			t.Errorf("%s tallies: %d records, %d bytes", tc.keyType, mc.outRecords, mc.outBytes)
		}
		buf.Release()
	}
}

// TestCollectRollsBackAndSpills: a record that overruns io.sort.mb was
// already serialised into the slab when the buffer refuses it. Nothing of
// it may stay behind: the collector spills exactly the records before it and
// writes it again as the first record of the next fill, so the spills are
// byte-identical to the ones a collector staging each record outside the
// buffer (Add of serialised bytes, spill on refusal) produces.
func TestCollectRollsBackAndSpills(t *testing.T) {
	cmp, _ := writable.Comparator("BytesWritable")
	pf, _ := writable.PrefixExtractor("BytesWritable")
	const capacity, partitions = 100 << 10, 3
	rng := rand.New(rand.NewSource(11))
	pairs := make([][2]*writable.BytesWritable, 700)
	for i := range pairs {
		k, v := make([]byte, 1+rng.Intn(40)), make([]byte, rng.Intn(3000))
		rng.Read(k)
		rng.Read(v)
		pairs[i] = [2]*writable.BytesWritable{{Data: k}, {Data: v}}
	}

	// The reference: records staged outside the buffer.
	ref := kvbuf.NewSortBuffer(capacity, partitions, cmp)
	ref.SetPrefixFunc(pf)
	defer ref.Release()
	var want [][]*kvbuf.Segment
	part := mapreduce.HashPartitioner{}
	for _, kv := range pairs {
		kb, vb := writable.Marshal(kv[0]), writable.Marshal(kv[1])
		p := part.Partition(kv[0], kv[1], partitions)
		ok, err := ref.Add(p, kb, vb)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			segs, _ := ref.Spill()
			want = append(want, segs)
			if ok, err := ref.Add(p, kb, vb); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}
	}
	segs, _ := ref.Spill()
	want = append(want, segs)

	buf := kvbuf.NewSortBuffer(capacity, partitions, cmp)
	buf.SetPrefixFunc(pf)
	mc := &mapCollector{
		// spillPct 2 is never reached: every spill is a refusal and a roll-back.
		tr:   &TaskRunner{job: &mapreduce.Job{}, numReduces: partitions, spillPct: 2},
		part: part,
		buf:  buf,
		ctrs: mapreduce.NewCounters(),
		tm:   &spillTimings{},
	}
	for _, kv := range pairs {
		if err := mc.Collect(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.spill(); err != nil {
		t.Fatal(err)
	}
	buf.Release()
	if len(mc.spills) != len(want) || len(want) < 5 {
		t.Fatalf("%d spills, reference %d (want several)", len(mc.spills), len(want))
	}
	for i := range want {
		for p := range want[i] {
			if !bytes.Equal(mc.spills[i][p].Bytes(), want[i][p].Bytes()) {
				t.Errorf("spill %d partition %d differs from the staged reference", i, p)
			}
		}
	}
	if got := mc.ctrs.Task(mapreduce.CtrSpilledRecords); got != int64(len(pairs)) || mc.outRecords != int64(len(pairs)) {
		t.Errorf("SPILLED_RECORDS %d, collected %d, want %d each: a rolled-back record was counted or lost", got, mc.outRecords, len(pairs))
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
