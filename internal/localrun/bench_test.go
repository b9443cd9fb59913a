package localrun

import (
	"fmt"
	"math/rand"
	"testing"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// benchSegment builds one IFile segment of n TeraSort-shaped records
// (10-byte BytesWritable keys, 30-byte values).
func benchSegment(n int, seed int64) *kvbuf.Segment {
	rng := rand.New(rand.NewSource(seed))
	w := kvbuf.NewWriter(n * 48)
	k := make([]byte, 10)
	v := make([]byte, 30)
	for i := 0; i < n; i++ {
		rng.Read(k)
		rng.Read(v)
		w.Append(writable.Marshal(&writable.BytesWritable{Data: k}), v)
	}
	return w.Close()
}

// benchFetchAll shuffles one reducer's input — every map's partition segment
// — from the server through the production copy phase (copyPhase), bounded
// by `parallel` persistent pipelined connections, including its buffer
// lifecycle: fetched payloads are drawn from the segment pool (ReadSegment) and
// recycled by the phase's cleanup, so steady-state iterations allocate almost
// nothing per segment.
func benchFetchAll(addr string, maps, reduce, parallel int) error {
	res, err := copyPhase(addr, maps, reduce, parallel, faultinject.Backoff{})
	if res != nil {
		defer res.cleanup()
	}
	if err != nil {
		return err
	}
	for m, ok := range res.fetched {
		if !ok {
			return fmt.Errorf("map %d segment missing", m)
		}
	}
	return nil
}

// benchmarkShuffleFetch measures copy-phase throughput: `maps` registered
// segments of recs records each, fetched with `parallel` fetchers.
func benchmarkShuffleFetch(b *testing.B, maps, recs, parallel int) {
	s, err := newShuffleServer(false)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seg := benchSegment(recs, 1)
	for m := 0; m < maps; m++ {
		if err := s.Register(m, 0, seg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(seg.Len()) * int64(maps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchFetchAll(s.Addr(), maps, 0, parallel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(maps*recs)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkShuffleFetch16MapsP4(b *testing.B)  { benchmarkShuffleFetch(b, 16, 2000, 4) }
func BenchmarkShuffleFetch64MapsP4(b *testing.B)  { benchmarkShuffleFetch(b, 64, 500, 4) }
func BenchmarkShuffleFetch64MapsP16(b *testing.B) { benchmarkShuffleFetch(b, 64, 500, 16) }

// BenchmarkTeraSortEndToEnd runs the full real pipeline — map, sort/spill,
// TCP shuffle, merge, reduce — over TeraSort-shaped records in memory.
func BenchmarkTeraSortEndToEnd(b *testing.B) {
	const records = 20000
	rng := rand.New(rand.NewSource(3))
	pairs := make([]mapreduce.Pair, records)
	var payload int64
	for i := range pairs {
		k := make([]byte, 10)
		v := make([]byte, 30)
		rng.Read(k)
		rng.Read(v)
		pairs[i] = mapreduce.Pair{
			Key:   &writable.BytesWritable{Data: k},
			Value: &writable.BytesWritable{Data: v},
		}
		payload += int64(len(k) + len(v))
	}
	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &mapreduce.Job{
			Name: "terasort-bench",
			Conf: mapreduce.NewConf().
				SetInt(mapreduce.ConfNumMaps, 4).
				SetInt(mapreduce.ConfNumReduces, 4).
				SetInt(mapreduce.ConfIOSortMB, 1),
			Mapper: func() mapreduce.Mapper { return mapreduce.IdentityMapper{} },
			Reducer: func() mapreduce.Reducer {
				return mapreduce.IdentityReducer{}
			},
			Input:              &mapreduce.SliceInput{Pairs: pairs},
			Output:             mapreduce.NullOutput{},
			MapOutputKeyType:   "BytesWritable",
			MapOutputValueType: "BytesWritable",
		}
		if _, err := Run(job, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}
