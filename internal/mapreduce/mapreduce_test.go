package mapreduce

import (
	"strings"
	"testing"
	"testing/quick"

	"mrmicro/internal/writable"
)

func TestConfDefaults(t *testing.T) {
	c := NewConf()
	if c.NumMaps() != 2 || c.NumReduces() != 1 {
		t.Errorf("defaults = %d maps / %d reduces", c.NumMaps(), c.NumReduces())
	}
	if c.IOSortMB() != 100 || c.IOSortFactor() != 10 {
		t.Error("io.sort defaults wrong")
	}
	if c.SortSpillPercent() != 0.80 {
		t.Error("spill percent default wrong")
	}
	if c.ParallelCopies() != 5 {
		t.Error("parallel copies default wrong")
	}
	if c.SlowstartMaps() != 0.05 {
		t.Error("slowstart default wrong")
	}
}

func TestConfSettersAndTypes(t *testing.T) {
	c := NewConf()
	c.SetInt(ConfNumMaps, 16).SetFloat(ConfSlowstartMaps, 0.5).SetBool(ConfSpeculative, true)
	if c.NumMaps() != 16 {
		t.Error("SetInt/GetInt mismatch")
	}
	if c.SlowstartMaps() != 0.5 {
		t.Error("SetFloat/GetFloat mismatch")
	}
	if !c.GetBool(ConfSpeculative, false) {
		t.Error("SetBool/GetBool mismatch")
	}
	if c.Get("unset.key", "fallback") != "fallback" {
		t.Error("default fallthrough broken")
	}
}

func TestConfClone(t *testing.T) {
	c := NewConf().SetInt(ConfNumMaps, 4)
	d := c.Clone()
	d.SetInt(ConfNumMaps, 8)
	if c.NumMaps() != 4 || d.NumMaps() != 8 {
		t.Error("clone shares state")
	}
}

func TestConfMalformedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on malformed int")
		}
	}()
	NewConf().Set(ConfNumMaps, "not-a-number").NumMaps()
}

// TestConfResolve: inside Resolve a malformed value is a *JobError naming key
// and value, read's own error passes through, and a panic that is not a
// malformed value is not swallowed.
func TestConfResolve(t *testing.T) {
	c := NewConf().Set(ConfNumMaps, "3").Set(ConfSlowstartMaps, "soon")
	var maps int
	if err := c.Resolve(func() error { maps = c.NumMaps(); return nil }); err != nil || maps != 3 {
		t.Errorf("well-formed read: maps %d, err %v", maps, err)
	}
	err := c.Resolve(func() error { c.SlowstartMaps(); return nil })
	je, ok := err.(*JobError)
	if !ok || !strings.Contains(je.Msg, ConfSlowstartMaps) || !strings.Contains(je.Msg, `"soon"`) {
		t.Errorf("malformed float: %v, want a JobError naming key and value", err)
	}
	if err := c.Resolve(func() error { return errf("mine") }); err == nil || err.Error() != "mine" {
		t.Errorf("read's own error came back as %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Resolve swallowed a foreign panic")
		}
	}()
	_ = c.Resolve(func() error { panic("a bug") })
}

func TestConfKeysSorted(t *testing.T) {
	c := NewConf().Set("b", "2").Set("a", "1").Set("c", "3")
	keys := c.Keys()
	if strings.Join(keys, ",") != "a,b,c" {
		t.Errorf("keys = %v", keys)
	}
}

func TestHashBytesMatchesJava(t *testing.T) {
	// Java: WritableComparator.hashBytes("abc".getBytes(), 3) ==
	// 1*31^3? Computed by the reference loop: h=1; h=31*1+97=128;
	// h=31*128+98=4066; h=31*4066+99=126145.
	if got := hashBytes([]byte("abc")); got != 126145 {
		t.Errorf("hashBytes(abc) = %d, want 126145", got)
	}
	if got := hashBytes(nil); got != 1 {
		t.Errorf("hashBytes(nil) = %d, want 1", got)
	}
}

func TestHashPartitionerInRange(t *testing.T) {
	f := func(data []byte, nr uint8) bool {
		n := int(nr%32) + 1
		p := HashPartitioner{}.Partition(&writable.BytesWritable{Data: data}, nil, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	k := writable.NewText("determinism")
	a := HashPartitioner{}.Partition(k, nil, 7)
	b := HashPartitioner{}.Partition(k, nil, 7)
	if a != b {
		t.Error("partitioner not deterministic")
	}
}

func TestHashCodeTypes(t *testing.T) {
	if HashCode(&writable.LongWritable{Value: 1}) != 1 {
		t.Error("LongWritable hash wrong for small value")
	}
	// Java Long.hashCode(1<<32 | 5) = (v ^ v>>>32).
	v := int64(1)<<32 | 5
	if HashCode(&writable.LongWritable{Value: v}) != int32(v^(v>>32&0xFFFFFFFF)) {
		t.Error("LongWritable hash wrong for large value")
	}
	if HashCode(writable.NullWritable{}) != 0 {
		t.Error("NullWritable hash != 0")
	}
	if HashCode(&writable.Text{Data: []byte("abc")}) != 126145 {
		t.Error("Text hash != hashBytes")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.IncrTask(CtrMapInputRecords, 10)
	c.IncrTask(CtrMapInputRecords, 5)
	c.Incr("custom", "events", 1)
	if c.Task(CtrMapInputRecords) != 15 {
		t.Error("counter arithmetic wrong")
	}
	if c.Get("custom", "events") != 1 {
		t.Error("custom group missing")
	}
	if c.Get("nope", "nothing") != 0 {
		t.Error("unset counter != 0")
	}

	d := NewCounters()
	d.IncrTask(CtrMapInputRecords, 100)
	c.Merge(d)
	if c.Task(CtrMapInputRecords) != 115 {
		t.Error("merge wrong")
	}
	s := c.String()
	if !strings.Contains(s, "MAP_INPUT_RECORDS=115") {
		t.Errorf("render missing counter: %s", s)
	}
}

func TestTaskIDFormats(t *testing.T) {
	job := JobID{Seq: 3}
	if job.String() != "job_0003" {
		t.Errorf("job id = %s", job)
	}
	task := TaskID{Job: job, Type: TaskMap, Index: 7}
	if task.String() != "task_0003_m_000007" {
		t.Errorf("task id = %s", task)
	}
	att := TaskAttemptID{Task: task, Attempt: 1}
	if att.String() != "attempt_0003_m_000007_1" {
		t.Errorf("attempt id = %s", att)
	}
	r := TaskID{Job: job, Type: TaskReduce, Index: 0}
	if !strings.Contains(r.String(), "_r_") {
		t.Errorf("reduce id = %s", r)
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"setup", "map", "shuffle", "sort", "reduce", "cleanup"}
	for i, w := range want {
		if Phase(i).String() != w {
			t.Errorf("phase %d = %s, want %s", i, Phase(i), w)
		}
	}
}

type nullInput struct{}

func (nullInput) Splits(*Conf) ([]InputSplit, error)             { return nil, nil }
func (nullInput) Reader(InputSplit, *Conf) (RecordReader, error) { return nil, nil }

type nullOutput struct{}

func (nullOutput) Writer(*Conf, int) (RecordWriter, error) { return nil, nil }

func TestJobValidate(t *testing.T) {
	mk := func() *Job {
		return &Job{
			Name: "t",
			Conf: NewConf().SetInt(ConfNumMaps, 1).SetInt(ConfNumReduces, 1),
			Mapper: func() Mapper {
				return MapperFunc(func(k, v writable.Writable, o Collector, r Reporter) error { return nil })
			},
			Reducer: func() Reducer {
				return ReducerFunc(func(k writable.Writable, vs ValueIterator, o Collector, r Reporter) error { return nil })
			},
			Input:              nullInput{},
			Output:             nullOutput{},
			MapOutputKeyType:   "BytesWritable",
			MapOutputValueType: "BytesWritable",
		}
	}
	if err := mk().Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}

	j := mk()
	j.Mapper = nil
	if err := j.Validate(); err == nil {
		t.Error("nil mapper accepted")
	}

	j = mk()
	j.Reducer = nil
	if err := j.Validate(); err == nil {
		t.Error("nil reducer accepted with reduces > 0")
	}

	j = mk()
	j.Conf.SetInt(ConfNumReduces, 0)
	j.Reducer = nil
	j.Output = nil
	if err := j.Validate(); err != nil {
		t.Errorf("map-only job rejected: %v", err)
	}

	j = mk()
	j.MapOutputKeyType = "DoesNotExist"
	if err := j.Validate(); err == nil {
		t.Error("unknown key type accepted")
	}

	j = mk()
	j.Partitioner = nil
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Partitioner == nil {
		t.Error("Validate should default the partitioner")
	}
}

func TestAdapters(t *testing.T) {
	var collected int
	col := CollectorFunc(func(k, v writable.Writable) error { collected++; return nil })
	m := MapperFunc(func(k, v writable.Writable, o Collector, r Reporter) error {
		return o.Collect(k, v)
	})
	if err := m.Map(writable.NullWritable{}, writable.NullWritable{}, col, NullReporter{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(col, NullReporter{}); err != nil {
		t.Fatal(err)
	}
	if collected != 1 {
		t.Error("collector not invoked")
	}

	ctrs := NewCounters()
	rep := &CountersReporter{C: ctrs}
	rep.IncrCounter(CounterGroupTask, CtrMapOutputRecords, 2)
	rep.SetStatus("working")
	if ctrs.Task(CtrMapOutputRecords) != 2 || rep.Status != "working" {
		t.Error("CountersReporter not recording")
	}
}

// TestMemoryOutputStoresCopies: a reducer may refill the instances it
// emitted as soon as Write returns, so MemoryOutput keeps deep copies; an
// aborted writer publishes nothing.
func TestMemoryOutputStoresCopies(t *testing.T) {
	out := &MemoryOutput{}
	w, _ := out.Writer(nil, 0)
	key, val := writable.NewText("k1"), &writable.LongWritable{Value: 1}
	bw := &writable.BytesWritable{Data: []byte("a")}
	for _, v := range []writable.Writable{val, bw, writable.NullWritable{}} {
		if err := w.Write(key, v); err != nil {
			t.Fatal(err)
		}
	}
	key.Data[1], val.Value = '2', 2
	bw.Data[0] = 'b'
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := out.Pairs(0)
	if len(got) != 3 {
		t.Fatalf("%d pairs, want 3", len(got))
	}
	for i, want := range []string{"1", "61", "(null)"} {
		if k, v := got[i].Key.(*writable.Text).String(), got[i].Value.(interface{ String() string }).String(); k != "k1" || v != want {
			t.Errorf("pair %d = (%s, %s), want (k1, %s)", i, k, v, want)
		}
	}

	aborted, _ := out.Writer(nil, 1)
	aborted.Write(key, val)
	if err := aborted.Abort(); err != nil || out.Pairs(1) != nil {
		t.Errorf("aborted writer: err %v, pairs %v", err, out.Pairs(1))
	}
}
