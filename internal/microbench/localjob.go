package microbench

import (
	"mrmicro/internal/mapreduce"
)

// BuildJob materializes the benchmark as a real mapreduce.Job runnable by
// the localrun executor: NullInputFormat splits, the generator Mapper, the
// pattern's custom partitioner, the discard Reducer and NullOutput. This is
// the same benchmark the simulator times, executed for real — used by the
// test suite to validate that the partitioners and generator behave
// identically on both paths, and by users who want to trace actual records.
func BuildJob(cfg Config) (*mapreduce.Job, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Workload != "" {
		return buildWorkloadJob(cfg)
	}
	job := &mapreduce.Job{
		Name: cfg.Label(),
		Conf: cfg.HadoopConf(),
		Mapper: func() mapreduce.Mapper {
			return &GenMapper{
				Pairs:      cfg.PairsPerMap,
				KeySize:    cfg.KeySize,
				ValueSize:  cfg.ValueSize,
				DataType:   cfg.DataType,
				NumReduces: cfg.NumReduces,
			}
		},
		Reducer: func() mapreduce.Reducer { return DiscardReducer{} },
		Combiner: func() func() mapreduce.Reducer {
			if !cfg.Combine {
				return nil
			}
			return func() mapreduce.Reducer { return FirstValueCombiner{} }
		}(),
		PartitionerForTask: func(mapTask int) mapreduce.Partitioner {
			p, err := NewPartitioner(cfg.Pattern, cfg.PairsPerMap, cfg.Seed+int64(mapTask)*7919)
			if err != nil {
				panic(err) // cfg validated above; unreachable
			}
			return p
		},
		Input:              NullInputFormat{},
		Output:             mapreduce.NullOutput{},
		MapOutputKeyType:   cfg.DataType,
		MapOutputValueType: cfg.DataType,
	}
	return job, nil
}
