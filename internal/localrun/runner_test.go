package localrun

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// lineInput serves text from memory as TextInputFormat serves a file: one
// (LongWritable byte offset, Text line) record per line, each map task
// reading a contiguous run of lines. The runs are ceil(lines/maps) long, so
// the last may be shorter and a text of fewer lines than maps gets one map
// per line.
type lineInput string

// lineSplit is one map task's run of lines; a copy of it is its reader.
type lineSplit struct {
	offset int64
	lines  []string
}

func (in lineInput) Splits(conf *mapreduce.Conf) ([]mapreduce.InputSplit, error) {
	lines := strings.Split(strings.TrimRight(string(in), "\n"), "\n")
	n := max(1, min(conf.NumMaps(), len(lines)))
	per := (len(lines) + n - 1) / n
	var out []mapreduce.InputSplit
	offset := int64(0)
	for len(lines) > 0 {
		s := &lineSplit{offset: offset, lines: lines[:min(per, len(lines))]}
		lines = lines[len(s.lines):]
		offset += s.Length()
		out = append(out, s)
	}
	return out, nil
}

func (lineInput) Reader(split mapreduce.InputSplit, _ *mapreduce.Conf) (mapreduce.RecordReader, error) {
	r := *split.(*lineSplit)
	return &r, nil
}

func (s *lineSplit) Length() int64 {
	var n int64
	for _, l := range s.lines {
		n += int64(len(l)) + 1
	}
	return n
}

func (s *lineSplit) Next() (writable.Writable, writable.Writable, bool, error) {
	if len(s.lines) == 0 {
		return nil, nil, false, nil
	}
	k, v := &writable.LongWritable{Value: s.offset}, writable.NewText(s.lines[0])
	s.offset += int64(len(s.lines[0])) + 1
	s.lines = s.lines[1:]
	return k, v, true, nil
}

func (s *lineSplit) Close() error { return nil }

// wordCountJob builds the canonical test job over the given corpus.
func wordCountJob(text string, maps, reduces int, combiner bool) (*mapreduce.Job, *mapreduce.MemoryOutput) {
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "wordcount",
		Conf: mapreduce.NewConf().
			SetInt(mapreduce.ConfNumMaps, maps).
			SetInt(mapreduce.ConfNumReduces, reduces).
			SetInt(mapreduce.ConfIOSortMB, 1),
		Mapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
				for _, w := range strings.Fields(v.(*writable.Text).String()) {
					if err := o.Collect(writable.NewText(w), &writable.LongWritable{Value: 1}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		Reducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
				var sum int64
				for {
					v, ok := vs.Next()
					if !ok {
						break
					}
					sum += v.(*writable.LongWritable).Value
				}
				return o.Collect(writable.NewText(k.(*writable.Text).String()), &writable.LongWritable{Value: sum})
			})
		},
		Input:              lineInput(text),
		Output:             out,
		MapOutputKeyType:   "Text",
		MapOutputValueType: "LongWritable",
	}
	if combiner {
		job.Combiner = job.Reducer
	}
	return job, out
}

// orderJob is wordCountJob made order-revealing. Every map output value is a
// job-wide serial (line offset and word position: unique, increasing within a
// map) and the reducer folds its values with a non-commutative hash, so the
// order in which equal keys reach it is written into the output — a sum
// cannot see a merge that reorders ties. The combiner is the same fold.
func orderJob(text string, maps, reduces int, combiner bool) (*mapreduce.Job, *mapreduce.MemoryOutput) {
	job, out := wordCountJob(text, maps, reduces, false)
	job.Name = "arrival-order"
	job.Mapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
			offset := k.(*writable.LongWritable).Value
			for i, w := range strings.Fields(v.(*writable.Text).String()) {
				if err := o.Collect(writable.NewText(w), &writable.LongWritable{Value: offset<<8 | int64(i)}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	job.Reducer = func() mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
			h := uint64(14695981039346656037)
			for {
				v, ok := vs.Next()
				if !ok {
					break
				}
				h = (h ^ uint64(v.(*writable.LongWritable).Value)) * 1099511628211
			}
			return o.Collect(writable.NewText(k.(*writable.Text).String()), &writable.LongWritable{Value: int64(h)})
		})
	}
	if combiner {
		job.Combiner = job.Reducer
	}
	return job, out
}

func corpus() (string, map[string]int64) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var b strings.Builder
	want := map[string]int64{}
	for i := 0; i < 200; i++ {
		w := words[i%len(words)]
		n := i%3 + 1
		for j := 0; j < n; j++ {
			b.WriteString(w)
			b.WriteByte(' ')
			want[w]++
		}
		b.WriteByte('\n')
	}
	return b.String(), want
}

func collectCounts(t *testing.T, out *mapreduce.MemoryOutput, reduces int) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, p := range out.All(reduces) {
		got[p.Key.(*writable.Text).String()] = p.Value.(*writable.LongWritable).Value
	}
	return got
}

func TestWordCountEndToEnd(t *testing.T) {
	leakcheck.Check(t, 0)
	text, want := corpus()
	job, out := wordCountJob(text, 4, 3, false)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, out, 3)
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if res.NumMaps != 4 || res.NumReduces != 3 {
		t.Errorf("tasks = %d/%d", res.NumMaps, res.NumReduces)
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	leakcheck.Check(t, 0)
	text, want := corpus()
	job, out := wordCountJob(text, 4, 2, true)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(t, out, 2)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	c := res.Counters
	if c.Task(mapreduce.CtrCombineInputRecords) == 0 {
		t.Error("combiner never ran")
	}
	// The combiner must shrink the stream: reduce input records < map output.
	if c.Task(mapreduce.CtrReduceInputRecords) >= c.Task(mapreduce.CtrMapOutputRecords) {
		t.Error("combiner did not reduce shuffled records")
	}
}

func TestCounterInvariants(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	job, _ := wordCountJob(text, 3, 2, false)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	mo := c.Task(mapreduce.CtrMapOutputRecords)
	ri := c.Task(mapreduce.CtrReduceInputRecords)
	if mo == 0 {
		t.Fatal("no map output")
	}
	if mo != ri {
		t.Errorf("map output records %d != reduce input records %d", mo, ri)
	}
	if got := c.Task(mapreduce.CtrShuffledMaps); got != int64(3*2) {
		t.Errorf("shuffled maps = %d, want 6", got)
	}
	if c.Task(mapreduce.CtrSpilledRecords) < mo {
		t.Errorf("spilled %d < map output %d (each record spills at least once)",
			c.Task(mapreduce.CtrSpilledRecords), mo)
	}
	if c.Task(mapreduce.CtrReduceShuffleBytes) == 0 {
		t.Error("no shuffle bytes counted")
	}
}

func TestMultipleSpillsPerMap(t *testing.T) {
	leakcheck.Check(t, 0)
	// A 1 MiB sort buffer with >1 MiB of map output forces several spills,
	// exercising the per-partition final merge.
	var pairs []mapreduce.Pair
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i % 97)},
			Value: &writable.BytesWritable{Data: make([]byte, 1024)},
		})
	}
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "spilly",
		Conf: mapreduce.NewConf().
			SetInt(mapreduce.ConfNumMaps, 2).
			SetInt(mapreduce.ConfNumReduces, 2).
			SetInt(mapreduce.ConfIOSortMB, 1),
		Mapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
				return o.Collect(k, v)
			})
		},
		Reducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
				var n int64
				for {
					if _, ok := vs.Next(); !ok {
						break
					}
					n++
				}
				return o.Collect(&writable.LongWritable{Value: k.(*writable.LongWritable).Value}, &writable.LongWritable{Value: n})
			})
		},
		Input:              &mapreduce.SliceInput{Pairs: pairs},
		Output:             out,
		MapOutputKeyType:   "LongWritable",
		MapOutputValueType: "BytesWritable",
	}
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	// > 3 MB of records through 1 MiB buffers: must have spilled more than
	// once per map, i.e. SPILLED_RECORDS > MAP_OUTPUT_RECORDS is possible
	// only with re-merges; at minimum every record spilled once.
	if res.Counters.Task(mapreduce.CtrSpilledRecords) < 3000 {
		t.Errorf("spilled records = %d, want >= 3000", res.Counters.Task(mapreduce.CtrSpilledRecords))
	}
	var total int64
	for r := 0; r < 2; r++ {
		for _, p := range out.Pairs(r) {
			total += p.Value.(*writable.LongWritable).Value
		}
	}
	if total != 3000 {
		t.Errorf("reduced record total = %d, want 3000", total)
	}
}

func TestReduceOutputSortedWithinPartition(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	job, out := wordCountJob(text, 2, 2, false)
	if _, err := Run(job, nil); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		var keys []string
		for _, p := range out.Pairs(r) {
			keys = append(keys, p.Key.(*writable.Text).String())
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("partition %d keys not sorted: %v", r, keys)
		}
	}
}

func TestCustomPartitionerRouting(t *testing.T) {
	leakcheck.Check(t, 0)
	// Route everything to partition 1; partition 0 must stay empty.
	var pairs []mapreduce.Pair
	for i := 0; i < 50; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i)},
			Value: writable.NullWritable{},
		})
	}
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "routed",
		Conf: mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, 2).SetInt(mapreduce.ConfNumReduces, 2),
		Mapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
				return o.Collect(k, v)
			})
		},
		Reducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
				for {
					if _, ok := vs.Next(); !ok {
						break
					}
				}
				return o.Collect(&writable.LongWritable{Value: k.(*writable.LongWritable).Value}, writable.NullWritable{})
			})
		},
		Partitioner: func() mapreduce.Partitioner {
			return mapreduce.PartitionerFunc(func(_, _ writable.Writable, _ int) int { return 1 })
		},
		Input:              &mapreduce.SliceInput{Pairs: pairs},
		Output:             out,
		MapOutputKeyType:   "LongWritable",
		MapOutputValueType: "NullWritable",
	}
	if _, err := Run(job, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(out.Pairs(0)); n != 0 {
		t.Errorf("partition 0 got %d records, want 0", n)
	}
	if n := len(out.Pairs(1)); n != 50 {
		t.Errorf("partition 1 got %d records, want 50", n)
	}
}

func TestMapOnlyJob(t *testing.T) {
	leakcheck.Check(t, 0)
	var pairs []mapreduce.Pair
	for i := 0; i < 10; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i)},
			Value: writable.NullWritable{},
		})
	}
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "maponly",
		Conf: mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, 2).SetInt(mapreduce.ConfNumReduces, 0),
		Mapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k, v writable.Writable, o mapreduce.Collector, _ mapreduce.Reporter) error {
				return o.Collect(k, v)
			})
		},
		Input:              &mapreduce.SliceInput{Pairs: pairs},
		Output:             out,
		MapOutputKeyType:   "LongWritable",
		MapOutputValueType: "NullWritable",
	}
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Task(mapreduce.CtrMapOutputRecords) != 10 {
		t.Errorf("map output = %d", res.Counters.Task(mapreduce.CtrMapOutputRecords))
	}
	total := len(out.Pairs(0)) + len(out.Pairs(1))
	if total != 10 {
		t.Errorf("output records = %d, want 10", total)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	leakcheck.Check(t, 0)
	job, _ := wordCountJob("a b c\n", 1, 1, false)
	job.Mapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(_, _ writable.Writable, _ mapreduce.Collector, _ mapreduce.Reporter) error {
			return fmt.Errorf("boom")
		})
	}
	if _, err := Run(job, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("map error not propagated: %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	leakcheck.Check(t, 0)
	job, _ := wordCountJob("a b c\n", 1, 1, false)
	job.Reducer = func() mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(_ writable.Writable, _ mapreduce.ValueIterator, _ mapreduce.Collector, _ mapreduce.Reporter) error {
			return fmt.Errorf("reduce-boom")
		})
	}
	if _, err := Run(job, nil); err == nil || !strings.Contains(err.Error(), "reduce-boom") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestDeterministicOutput(t *testing.T) {
	leakcheck.Check(t, 0)
	text, _ := corpus()
	run := func() string {
		job, out := wordCountJob(text, 4, 3, true)
		if _, err := Run(job, nil); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for r := 0; r < 3; r++ {
			for _, p := range out.Pairs(r) {
				lines = append(lines, fmt.Sprintf("%d/%v=%v", r, p.Key, p.Value))
			}
		}
		return strings.Join(lines, ";")
	}
	if a, b := run(), run(); a != b {
		t.Error("two identical runs produced different output")
	}
}

func TestShuffleServerMissingSegment(t *testing.T) {
	s, err := newShuffleServer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, st, err := FetchMapOutput(s.Addr(), 9, 9, false, nil, faultinject.Backoff{Attempts: 3})
	if err == nil {
		t.Fatal("fetch of unregistered segment succeeded")
	}
	if st.Retries != 0 {
		t.Errorf("a missing segment is permanent, but the fetch retried %d times", st.Retries)
	}
}

func TestEmptyInputRejected(t *testing.T) {
	leakcheck.Check(t, 0)
	job, _ := wordCountJob("x\n", 1, 1, false)
	job.Input = &mapreduce.SliceInput{}
	job.Conf.SetInt(mapreduce.ConfNumMaps, 0)
	if _, err := Run(job, nil); err == nil {
		t.Error("zero maps accepted")
	}
}

func BenchmarkLocalWordCount(b *testing.B) {
	text, _ := corpus()
	for i := 0; i < b.N; i++ {
		job, _ := wordCountJob(text, 4, 2, true)
		if _, err := Run(job, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompressedShuffleSameResults(t *testing.T) {
	leakcheck.Check(t, 0)
	text, want := corpus()
	plain, outP := wordCountJob(text, 3, 2, false)
	resP, err := Run(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	zjob, outZ := wordCountJob(text, 3, 2, false)
	zjob.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
	resZ, err := Run(zjob, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Identical results...
	gp, gz := collectCounts(t, outP, 2), collectCounts(t, outZ, 2)
	for w, n := range want {
		if gp[w] != n || gz[w] != n {
			t.Errorf("count[%s] = %d/%d, want %d", w, gp[w], gz[w], n)
		}
	}
	// ...but fewer bytes on the wire (word text compresses well).
	bp := resP.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	bz := resZ.Counters.Task(mapreduce.CtrReduceShuffleBytes)
	if bz >= bp {
		t.Errorf("compressed shuffle %d not smaller than plain %d", bz, bp)
	}
	t.Logf("shuffle bytes: plain=%d compressed=%d (%.0f%% saved)", bp, bz, 100*float64(bp-bz)/float64(bp))
}

func TestIdentityComponents(t *testing.T) {
	leakcheck.Check(t, 0)
	var pairs []mapreduce.Pair
	for i := 0; i < 20; i++ {
		pairs = append(pairs, mapreduce.Pair{
			Key:   &writable.LongWritable{Value: int64(i % 5)},
			Value: writable.NewText(fmt.Sprintf("v%d", i)),
		})
	}
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name:               "identity",
		Conf:               mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, 2).SetInt(mapreduce.ConfNumReduces, 2),
		Mapper:             func() mapreduce.Mapper { return mapreduce.IdentityMapper{} },
		Reducer:            func() mapreduce.Reducer { return mapreduce.IdentityReducer{} },
		Input:              &mapreduce.SliceInput{Pairs: pairs},
		Output:             out,
		MapOutputKeyType:   "LongWritable",
		MapOutputValueType: "Text",
	}
	if _, err := Run(job, nil); err != nil {
		t.Fatal(err)
	}
	total := len(out.Pairs(0)) + len(out.Pairs(1))
	if total != 20 {
		t.Errorf("identity pipeline emitted %d records, want 20", total)
	}
	// Values survive intact (deep copies, not reused instances).
	seen := map[string]bool{}
	for r := 0; r < 2; r++ {
		for _, p := range out.Pairs(r) {
			seen[p.Value.(*writable.Text).String()] = true
		}
	}
	if len(seen) != 20 {
		t.Errorf("distinct values = %d, want 20 (instance reuse bug?)", len(seen))
	}
}
