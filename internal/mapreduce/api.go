package mapreduce

import (
	"mrmicro/internal/writable"
)

// Collector receives the key/value pairs a Mapper or Reducer emits
// (Hadoop's OutputCollector).
//
// One rule covers every Collector and every RecordWriter: they consume key
// and value before they return — serialize them into the shuffle, write
// them out, or copy them — and never mutate or retain them. So an emitter
// may refill and re-emit the same instances record after record, emit views
// into its input, and a reducer may emit the iterator's key and values as
// they are. MemoryOutput keeps copies for exactly this reason.
type Collector interface {
	Collect(key, value writable.Writable) error
}

// Reporter lets task code report liveness and update counters.
type Reporter interface {
	// Progress signals the task is alive (resets the task timeout).
	Progress()
	// IncrCounter adds amount to a named counter.
	IncrCounter(group, name string, amount int64)
	// SetStatus publishes a human-readable task status line.
	SetStatus(status string)
}

// Mapper transforms one input record into any number of intermediate
// records. One instance is constructed per map task; Map is called once per
// input record, then Close once.
type Mapper interface {
	Map(key, value writable.Writable, out Collector, rep Reporter) error
	Close(out Collector, rep Reporter) error
}

// ValueIterator streams the values of one reduce group.
type ValueIterator interface {
	// Next returns the next value, or ok=false at group end. The returned
	// Writable may be reused between calls; callers must copy to retain.
	Next() (writable.Writable, bool)
}

// Reducer folds one key group. One instance per reduce task; Reduce is
// called once per distinct key in sorted order.
type Reducer interface {
	Reduce(key writable.Writable, values ValueIterator, out Collector, rep Reporter) error
	Close(out Collector, rep Reporter) error
}

// Partitioner routes an intermediate record to a reduce task. The paper's
// entire contribution hangs off this interface: MR-AVG, MR-RAND and MR-SKEW
// are Partitioners.
type Partitioner interface {
	Partition(key, value writable.Writable, numReduces int) int
}

// InputSplit describes one map task's input slice.
type InputSplit interface {
	// Length is the split's size in bytes (0 for synthetic splits).
	Length() int64
}

// RecordReader iterates a split's records.
type RecordReader interface {
	// Next returns the next record; ok=false ends the split.
	Next() (key, value writable.Writable, ok bool, err error)
	Close() error
}

// InputFormat produces splits and readers (Hadoop's InputFormat).
type InputFormat interface {
	Splits(conf *Conf) ([]InputSplit, error)
	Reader(split InputSplit, conf *Conf) (RecordReader, error)
}

// RecordWriter consumes reduce output (and a map-only job's map output)
// under the Collector rule: Write is done with key and value when it
// returns. Exactly one of Close (commit) or Abort (discard) ends a writer;
// an engine calls Abort on every error after the writer was opened, so a
// failed attempt leaves no open file and no partial output behind.
type RecordWriter interface {
	Write(key, value writable.Writable) error
	Close() error
	Abort() error
}

// OutputFormat produces one writer per reduce task.
type OutputFormat interface {
	Writer(conf *Conf, reduce int) (RecordWriter, error)
}

// Job is a complete MapReduce job description. Component fields are
// factories so every task gets a fresh instance (Hadoop constructs task
// classes per attempt).
type Job struct {
	Name string
	Conf *Conf

	Mapper      func() Mapper
	Reducer     func() Reducer
	Combiner    func() Reducer // nil disables combining
	Partitioner func() Partitioner

	// PartitionerForTask, when set, supersedes Partitioner with a per-map
	// factory so stateful partitioners can be seeded per task (tasks run
	// concurrently; a shared closure would race).
	PartitionerForTask func(mapTask int) Partitioner

	Input  InputFormat
	Output OutputFormat

	// MapOutputKeyType/ValueType name registered writable types; engines
	// use them to pick raw comparators and to deserialize shuffled data.
	MapOutputKeyType   string
	MapOutputValueType string
}

// Validate reports configuration errors before an engine accepts the job.
func (j *Job) Validate() error {
	switch {
	case j.Mapper == nil:
		return errf("job %q: Mapper is required", j.Name)
	case j.Reducer == nil && j.Conf.NumReduces() > 0:
		return errf("job %q: Reducer is required with %d reduces", j.Name, j.Conf.NumReduces())
	case j.Input == nil:
		return errf("job %q: Input is required", j.Name)
	case j.Output == nil && j.Conf.NumReduces() > 0:
		return errf("job %q: Output is required", j.Name)
	case j.Conf.NumMaps() <= 0:
		return errf("job %q: needs at least one map task", j.Name)
	case j.Conf.NumReduces() < 0:
		return errf("job %q: negative reduce count", j.Name)
	}
	if j.Conf.NumReduces() > 0 {
		if _, err := writable.Comparator(j.MapOutputKeyType); err != nil {
			return errf("job %q: map output key type: %v", j.Name, err)
		}
	}
	if j.Partitioner == nil && j.PartitionerForTask == nil {
		j.Partitioner = func() Partitioner { return HashPartitioner{} }
	}
	return nil
}

func errf(format string, args ...interface{}) error {
	return &JobError{Msg: sprintf(format, args...)}
}

// JobError is a job-definition or job-execution failure.
type JobError struct{ Msg string }

func (e *JobError) Error() string { return e.Msg }
