package mapreduce

import "mrmicro/internal/writable"

// Stock task implementations mirroring Hadoop's org.apache.hadoop.mapreduce.lib
// classes, so common jobs need no custom code.

// IdentityMapper emits every input record unchanged (Hadoop's Mapper base
// behaviour).
type IdentityMapper struct{}

// Map forwards the record.
func (IdentityMapper) Map(k, v writable.Writable, out Collector, _ Reporter) error {
	return out.Collect(k, v)
}

// Close is a no-op.
func (IdentityMapper) Close(Collector, Reporter) error { return nil }

// IdentityReducer re-emits each key with each of its values (Hadoop's
// Reducer base behaviour), as the engine hands them over: the output writer
// consumes both before the iterator reuses them (see Collector).
type IdentityReducer struct{}

// Reduce forwards the group.
func (IdentityReducer) Reduce(k writable.Writable, vs ValueIterator, out Collector, _ Reporter) error {
	for {
		v, ok := vs.Next()
		if !ok {
			return nil
		}
		if err := out.Collect(k, v); err != nil {
			return err
		}
	}
}

// Close is a no-op.
func (IdentityReducer) Close(Collector, Reporter) error { return nil }
