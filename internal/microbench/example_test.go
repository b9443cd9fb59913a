package microbench_test

import (
	"fmt"
	"log"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/netsim"
)

// ExampleRun is the README's quickstart: MR-AVG with 8 GiB of intermediate
// data and 1 KiB keys and values, on the paper's Cluster A over IPoIB QDR.
// res.Render() prints the paper-style report, job time included; the lines
// below are the part of it the cost model does not set.
func ExampleRun() {
	cfg := microbench.Config{
		Pattern:    microbench.MRAvg,
		Network:    netsim.IPoIBQDR32.Name,
		Slaves:     4,
		NumMaps:    16,
		NumReduces: 8,
		KeySize:    1024,
		ValueSize:  1024,
	}.WithShuffleSize(8 << 30)

	res, err := microbench.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tasks := map[mapreduce.TaskType]int{}
	for _, ev := range res.Report.Tasks {
		tasks[ev.Type]++
	}
	fmt.Printf("map/reduce tasks   %d / %d\n", tasks[mapreduce.TaskMap], tasks[mapreduce.TaskReduce])
	fmt.Printf("pairs per map      %d\n", res.Config.PairsPerMap)
	fmt.Printf("map output records %d\n", res.Report.Counters.Task(mapreduce.CtrMapOutputRecords))
	fmt.Printf("shuffled bytes     %s\n", microbench.FormatBytes(res.ShuffleBytes))
	// Output:
	// map/reduce tasks   16 / 8
	// pairs per map      260364
	// map output records 4165824
	// shuffled bytes     8.0 GiB
}

// ExampleBuildSpec shows what each intermediate-data distribution does to
// the reducers' load: the job spec is built by running each pattern's real
// partitioner over every generated record, so the shares below are the ones
// the simulated (and the real) engines shuffle.
func ExampleBuildSpec() {
	base := microbench.Config{
		Network:    netsim.IPoIBQDR32.Name,
		Slaves:     4,
		NumMaps:    16,
		NumReduces: 8,
		KeySize:    1024,
		ValueSize:  1024,
		Seed:       1,
	}.WithShuffleSize(8 << 30)

	for _, pat := range microbench.Patterns() {
		cfg := base
		cfg.Pattern = pat
		spec, err := microbench.BuildSpec(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %s:", pat, microbench.FormatBytes(spec.TotalShuffleBytes()))
		for r := 0; r < cfg.NumReduces; r++ {
			fmt.Printf(" %5.2f%%", 100*float64(spec.ReduceRecords(r))/float64(spec.TotalRecords()))
		}
		fmt.Println()
	}
	// Output:
	// MR-AVG  8.0 GiB: 12.50% 12.50% 12.50% 12.50% 12.50% 12.50% 12.50% 12.50%
	// MR-RAND 8.0 GiB: 12.51% 12.49% 12.51% 12.50% 12.51% 12.47% 12.51% 12.50%
	// MR-SKEW 8.0 GiB: 54.10% 16.60%  8.77%  4.12%  4.11%  4.09%  4.10%  4.10%
}
