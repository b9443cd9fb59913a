package mapreduce

import (
	"fmt"

	"mrmicro/internal/writable"
)

func sprintf(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

// HashCode computes a Java-compatible hash for the registered writable types,
// mirroring each Hadoop class's hashCode(): v ^ (v >>> 32) for a long, and
// WritableComparator.hashBytes for byte/text payloads.
func HashCode(w writable.Writable) int32 {
	switch v := w.(type) {
	case *writable.LongWritable:
		return int32(v.Value ^ int64(uint64(v.Value)>>32))
	case *writable.BytesWritable:
		return hashBytes(v.Data)
	case *writable.Text:
		return hashBytes(v.Data)
	case writable.NullWritable:
		return 0
	default:
		// Fall back to hashing the serialized form.
		return hashBytes(writable.Marshal(w))
	}
}

// hashBytes is Hadoop WritableComparator.hashBytes: h = h*31 + b[i], seeded
// with 1.
func hashBytes(b []byte) int32 {
	h := int32(1)
	for _, c := range b {
		h = 31*h + int32(int8(c))
	}
	return h
}

// HashPartitioner is Hadoop's default partitioner:
// (hash & Integer.MAX_VALUE) % numReduces.
type HashPartitioner struct{}

// Partition routes by key hash.
func (HashPartitioner) Partition(key, _ writable.Writable, numReduces int) int {
	return int((uint32(HashCode(key)) & 0x7fffffff) % uint32(numReduces))
}
