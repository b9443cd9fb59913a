// reducetail.go is the one reduce-shaped pass of the executor: a k-way merge
// over sorted record sources streamed, key group by key group, straight into
// a Reducer. Both reduce tails — in-memory segments (reduceOverParts, also
// what distrun workers run) and the bounded pool's memory+disk mix
// (reduceOverInputs, mergepool.go) — and the map-side combiner are this loop
// with different sources and sinks, so none of them ever materializes a
// record set and all of them validate sort order the same way.
package localrun

import (
	"bytes"
	"fmt"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// mergedValueIter adapts the pull-based source merger into the reducer's
// ValueIterator, one key group at a time. The merger's views are only valid
// until the next pull, so each value is unmarshaled before advancing.
type mergedValueIter struct {
	m        *kvbuf.SourceMerger
	cmp      writable.RawComparator
	inst     writable.Writable
	in       writable.DataInput // reused across records: decoding allocates nothing
	key, val []byte             // pending record: views into the merger's sources
	ok       bool
	err      error
	groupKey []byte // current group's key, copied so it outlives the views
	started  bool
	inGroup  bool
	records  int64 // records consumed so far, over all groups
}

func newMergedValueIter(m *kvbuf.SourceMerger, cmp writable.RawComparator, valType string) (*mergedValueIter, error) {
	inst, err := writable.New(valType)
	if err != nil {
		return nil, err
	}
	it := &mergedValueIter{m: m, cmp: cmp, inst: inst}
	it.pull()
	return it, it.err
}

func (it *mergedValueIter) pull() {
	it.key, it.val, it.ok, it.err = it.m.Next()
}

// inCurrentGroup reports whether the pending record belongs to the current
// group. Byte-equal keys always compare equal, so the comparator only runs
// at group boundaries (and for types with several encodings of one value).
func (it *mergedValueIter) inCurrentGroup() bool {
	return it.err == nil && it.ok &&
		(bytes.Equal(it.key, it.groupKey) || it.cmp(it.key, it.groupKey) == 0)
}

// beginGroup starts the next key group, unmarshaling its key into keyInst;
// ok=false when the stream is exhausted. Sort order is validated here: a new
// group's key must sort strictly after the previous group's (equal keys
// cannot start a new group, and a smaller one means a mis-sorted source).
func (it *mergedValueIter) beginGroup(keyInst writable.Writable) (bool, error) {
	if it.err != nil || !it.ok {
		return false, it.err
	}
	if it.started && it.cmp(it.key, it.groupKey) < 0 {
		return false, fmt.Errorf("merged records out of order at record %d", it.records)
	}
	it.groupKey = append(it.groupKey[:0], it.key...)
	it.started = true
	it.inGroup = true
	if err := it.in.Unmarshal(it.groupKey, keyInst); err != nil {
		return false, err
	}
	return true, nil
}

// Next implements mapreduce.ValueIterator over the current group.
func (it *mergedValueIter) Next() (writable.Writable, bool) {
	if !it.inGroup || !it.inCurrentGroup() {
		return nil, false
	}
	if err := it.in.Unmarshal(it.val, it.inst); err != nil {
		it.err = err
		return nil, false
	}
	it.records++
	it.pull()
	return it.inst, true
}

// endGroup drains whatever the reducer left unread, so the record tally is
// exact however early the reducer stopped.
func (it *mergedValueIter) endGroup() error {
	for it.inCurrentGroup() {
		it.records++
		it.pull()
	}
	it.inGroup = false
	return it.err
}

// groupTally is what one pass of runGroups consumed and produced. It is
// filled in as the pass runs, so a caller's deferred fold into Counters
// reports a failed pass's work too.
type groupTally struct {
	groups, in, out int64
}

// addTask folds a task-local tally into a task counter, leaving counters the
// task never touched absent from its dump.
func addTask(ctrs *mapreduce.Counters, name string, n int64) {
	if n != 0 {
		ctrs.IncrTask(name, n)
	}
}

// runGroups is the group loop every reduce-shaped pass shares — both reduce
// tails and the combiner: it k-way merges the sorted sources and hands red
// one key group at a time, straight off the merge. No record set is ever
// materialized, and sort order is validated at each group boundary.
func (tr *TaskRunner) runGroups(srcs []kvbuf.RecordSource, red mapreduce.Reducer, emit func(k, v writable.Writable) error, rep mapreduce.Reporter, t *groupTally) error {
	merger, err := kvbuf.NewSourceMerger(tr.cmp, srcs)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	keyInst, err := writable.New(tr.job.MapOutputKeyType)
	if err != nil {
		return err
	}
	it, err := newMergedValueIter(merger, tr.cmp, tr.job.MapOutputValueType)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	defer func() { t.in = it.records }()
	out := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		t.out++
		return emit(k, v)
	})
	for {
		ok, err := it.beginGroup(keyInst)
		if err != nil {
			return err
		}
		if !ok {
			return red.Close(out, rep)
		}
		t.groups++
		if err := red.Reduce(keyInst, it, out, rep); err != nil {
			return err
		}
		if err := it.endGroup(); err != nil {
			return fmt.Errorf("values: %w", err)
		}
	}
}

// reduceSources is the sort+reduce tail of a reduce task: the final merge
// over srcs streams straight into the reducer, whose output goes to the
// job's Output for partition r. A failed pass aborts the writer, so the
// attempt leaves no open file and no partial part behind.
func (tr *TaskRunner) reduceSources(r int, srcs []kvbuf.RecordSource, ctrs *mapreduce.Counters, rep mapreduce.Reporter) error {
	var t groupTally
	defer func() {
		addTask(ctrs, mapreduce.CtrReduceInputGroups, t.groups)
		addTask(ctrs, mapreduce.CtrReduceInputRecords, t.in)
		addTask(ctrs, mapreduce.CtrReduceOutputRecords, t.out)
	}()
	ctrs.IncrTask(mapreduce.CtrMergedMapOutputs, int64(len(tr.splits)))
	writer, err := tr.job.Output.Writer(tr.job.Conf, r)
	if err != nil {
		return fmt.Errorf("localrun: reduce %d output: %w", r, err)
	}
	if err := tr.runGroups(srcs, tr.job.Reducer(), writer.Write, rep, &t); err != nil {
		writer.Abort()
		return fmt.Errorf("localrun: reduce %d: %w", r, err)
	}
	return writer.Close()
}

// reduceOverParts runs the reduce tail over in-memory partition segments,
// one per map in map order: a single wide in-memory merge whose equal keys
// tie-break by map index. It is shared between the in-process executor's
// unbounded copy phase and the distributed runtime's workers (whose parts
// come from per-map fetches against remote shuffle servers), so both emit
// byte-identical output.
func (tr *TaskRunner) reduceOverParts(r int, parts []*kvbuf.Segment, ctrs *mapreduce.Counters, rep mapreduce.Reporter) error {
	srcs := make([]kvbuf.RecordSource, len(parts))
	for i, p := range parts {
		srcs[i] = p.NewReader()
	}
	return tr.reduceSources(r, srcs, ctrs, rep)
}

// combineSegment runs the job's combiner over one sorted segment.
func (tr *TaskRunner) combineSegment(seg *kvbuf.Segment, ctrs *mapreduce.Counters) (*kvbuf.Segment, error) {
	var t groupTally
	defer func() {
		addTask(ctrs, mapreduce.CtrCombineInputRecords, t.in)
		addTask(ctrs, mapreduce.CtrCombineOutputRecs, t.out)
	}()
	w := kvbuf.NewWriter(seg.Len())
	enc := writable.NewDataOutput(256)
	emit := func(k, v writable.Writable) error {
		enc.Reset()
		k.Write(enc)
		kl := enc.Len()
		v.Write(enc)
		raw := enc.Bytes()
		w.Append(raw[:kl], raw[kl:])
		return nil
	}
	rep := &mapreduce.CountersReporter{C: ctrs}
	if err := tr.runGroups([]kvbuf.RecordSource{seg.NewReader()}, tr.job.Combiner(), emit, rep, &t); err != nil {
		return nil, err
	}
	return w.Close(), nil
}
