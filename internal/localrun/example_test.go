package localrun

import (
	"fmt"
	"log"

	"mrmicro/internal/apps"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

const exampleCorpus = `the shuffle phase of a mapreduce job is communication intensive
the data shuffling phase can benefit from high performance interconnects
high bandwidth and low latency improve the job execution time
the map tasks transform input pairs to intermediate pairs
the reduce tasks aggregate intermediate data from the map phase
a uniformly balanced load can significantly shorten the total run time
in jobs with a skewed load some reducers take much longer
`

// ExampleRun executes wordcount for real: the workload's mapper and
// summing reducer (also the combiner) over three map tasks and two reduce
// tasks, through the sort/spill/merge pipeline and a TCP shuffle on
// loopback. The corpus is served from memory as TextInputFormat serves a
// file: one (byte offset, line) record per line, each map reading a
// contiguous run of lines.
func ExampleRun() {
	out := &mapreduce.MemoryOutput{}
	job := &mapreduce.Job{
		Name: "wordcount",
		Conf: mapreduce.NewConf().
			SetInt(mapreduce.ConfNumMaps, 3).
			SetInt(mapreduce.ConfNumReduces, 2),
		Mapper:             func() mapreduce.Mapper { return &apps.WordCountMapper{} },
		Reducer:            func() mapreduce.Reducer { return &apps.SumReducer{} },
		Combiner:           func() mapreduce.Reducer { return &apps.SumReducer{} },
		Input:              lineInput(exampleCorpus),
		Output:             out,
		MapOutputKeyType:   "Text",
		MapOutputValueType: "LongWritable",
	}
	res, err := Run(job, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d maps / %d reduces\n", res.NumMaps, res.NumReduces)
	fmt.Printf("map output records %d, shuffled after combining %d\n",
		res.Counters.Task(mapreduce.CtrMapOutputRecords),
		res.Counters.Task(mapreduce.CtrReduceInputRecords))
	fmt.Printf("distinct words %d; those seen three times or more:\n",
		res.Counters.Task(mapreduce.CtrReduceOutputRecords))
	for _, p := range out.All(2) {
		if n := p.Value.(*writable.LongWritable).Value; n >= 3 {
			fmt.Println(p.Key, n)
		}
	}
	// Output:
	// 3 maps / 2 reduces
	// map output records 71, shuffled after combining 59
	// distinct words 50; those seen three times or more:
	// a 3
	// phase 3
	// the 7
}
