package microbench

import (
	"fmt"
	"regexp"
	"strconv"

	"mrmicro/internal/apps"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/mrsim"
	"mrmicro/internal/writable"
)

// maxSortSamples bounds the HSSort cut-point sampler, like Hadoop's
// InputSampler default.
const maxSortSamples = 100000

// buildWorkloadJob assembles the real mapreduce.Job for a named workload:
// the corpus is materialized (content-addressed, so every process — local
// or a distrun worker rebuilding from repro flags — sees identical bytes),
// split by the chunk-spanning text reader, and wired to the workload's
// mapper/reducer pair. The map count is whatever the corpus dictates, not
// cfg.NumMaps: real inputs own their split geometry.
func buildWorkloadJob(cfg Config) (*mapreduce.Job, error) {
	conf := cfg.HadoopConf()
	input, numMaps, err := workloadInput(cfg, conf)
	if err != nil {
		return nil, err
	}
	conf.SetInt(mapreduce.ConfNumMaps, numMaps)

	var output mapreduce.OutputFormat = mapreduce.NullOutput{}
	if cfg.OutputDir != "" {
		output = &inputformat.TextOutput{Dir: cfg.OutputDir}
	}

	job := &mapreduce.Job{
		Name:             cfg.Label(),
		Conf:             conf,
		Input:            input,
		Output:           output,
		MapOutputKeyType: "Text",
	}

	switch cfg.Workload {
	case apps.WordCount:
		job.Mapper = func() mapreduce.Mapper { return &apps.WordCountMapper{} }
		job.Reducer = func() mapreduce.Reducer { return apps.SumReducer{} }
		job.MapOutputValueType = "LongWritable"
	case apps.Grep:
		re, err := regexp.Compile(cfg.GrepPattern)
		if err != nil {
			return nil, fmt.Errorf("microbench: grep pattern: %w", err)
		}
		// One compiled regexp shared across tasks: regexp.Regexp is
		// concurrency-safe and compilation dominates tiny splits.
		job.Mapper = func() mapreduce.Mapper { return &apps.GrepMapper{Re: re} }
		job.Reducer = func() mapreduce.Reducer { return apps.SumReducer{} }
		job.MapOutputValueType = "LongWritable"
	case apps.InvIndex:
		job.Mapper = func() mapreduce.Mapper { return &apps.InvIndexMapper{} }
		job.Reducer = func() mapreduce.Reducer { return apps.InvIndexReducer{} }
		job.MapOutputValueType = "Text"
	case apps.HSGen:
		seed := cfg.Seed
		job.Mapper = func() mapreduce.Mapper { return &apps.HSGenMapper{Seed: seed} }
		job.MapOutputValueType = "Text"
	case apps.HSSort:
		job.Mapper = func() mapreduce.Mapper { return &apps.HSSortMapper{} }
		job.Reducer = func() mapreduce.Reducer { return mapreduce.IdentityReducer{} }
		job.MapOutputValueType = "Text"
		if err := wireTotalOrder(job, input, conf, cfg.NumReduces); err != nil {
			return nil, err
		}
	case apps.HSValidate:
		rows, seed, err := hsExpectations(conf)
		if err != nil {
			return nil, err
		}
		job.Mapper = func() mapreduce.Mapper { return &apps.HSValidateMapper{} }
		job.Reducer = func() mapreduce.Reducer { return &apps.HSValidateReducer{Rows: rows, Seed: seed} }
		job.MapOutputValueType = "Text"
	default:
		return nil, fmt.Errorf("microbench: unknown workload %q", cfg.Workload)
	}

	if cfg.Combine {
		job.Combiner = func() mapreduce.Reducer { return apps.SumReducer{} }
	}
	return job, nil
}

// workloadInput resolves cfg's input format and real map count. File-backed
// workloads materialize their corpus here — the one place job building
// touches the filesystem.
func workloadInput(cfg Config, conf *mapreduce.Conf) (mapreduce.InputFormat, int, error) {
	if !apps.FileBacked(cfg.Workload) {
		return &apps.RowInput{Maps: cfg.NumMaps, RowsPerMap: cfg.PairsPerMap}, cfg.NumMaps, nil
	}
	dir, err := inputformat.Materialize(cfg.InputSpec)
	if err != nil {
		return nil, 0, fmt.Errorf("microbench: input %q: %w", cfg.InputSpec, err)
	}
	format := &inputformat.TextFormat{Dir: dir, SplitSize: cfg.SplitSize}
	splits, err := format.Splits(conf)
	if err != nil {
		return nil, 0, fmt.Errorf("microbench: input %q: %w", cfg.InputSpec, err)
	}
	if len(splits) == 0 {
		return nil, 0, fmt.Errorf("microbench: input %q holds no data", cfg.InputSpec)
	}
	return format, len(splits), nil
}

// wireTotalOrder samples the sort stage's input and installs a TeraSort
// partitioner: cut points are drawn once at build time (deterministic — the
// sampler scans splits in order), then every map task gets a fresh
// partitioner instance over the shared read-only cut points.
func wireTotalOrder(job *mapreduce.Job, input mapreduce.InputFormat, conf *mapreduce.Conf, numReduces int) error {
	var cuts [][]byte
	if numReduces > 1 {
		var err error
		cuts, err = mapreduce.SampleSplitPoints(&apps.HSKeySampleFormat{Inner: input}, conf, "Text", numReduces, maxSortSamples)
		if err != nil {
			return fmt.Errorf("microbench: hssort sampling: %w", err)
		}
	}
	cmp, err := writable.Comparator("Text")
	if err != nil {
		return err
	}
	job.PartitionerForTask = func(int) mapreduce.Partitioner {
		p, err := mapreduce.NewTotalOrderPartitioner(cmp, cuts)
		if err != nil {
			panic(err) // cuts come sorted from the sampler; unreachable
		}
		return p
	}
	return nil
}

// hsExpectations reads the validate stage's generator parameters off the
// job conf (they ride Config.ExtraConf so repro flags carry them).
func hsExpectations(conf *mapreduce.Conf) (rows, seed int64, err error) {
	rowsStr := conf.Get(apps.ConfHSRows, "")
	seedStr := conf.Get(apps.ConfHSSeed, "")
	if rowsStr == "" || seedStr == "" {
		return 0, 0, fmt.Errorf("microbench: hsvalidate needs %s and %s in ExtraConf (the generator's row count and seed)",
			apps.ConfHSRows, apps.ConfHSSeed)
	}
	if rows, err = strconv.ParseInt(rowsStr, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("microbench: %s: %w", apps.ConfHSRows, err)
	}
	if seed, err = strconv.ParseInt(seedStr, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("microbench: %s: %w", apps.ConfHSSeed, err)
	}
	return rows, seed, nil
}

// buildWorkloadMatrix resolves a workload's intermediate data the same way
// the synthetic path does — by running the real code and tallying — except
// here "the real code" is the workload's actual mapper over its actual
// splits, so the sims shuffle the workload's true key/value distribution,
// not a synthetic stand-in.
func buildWorkloadMatrix(cfg Config) (*mrsim.JobSpec, error) {
	if cfg.NumReduces < 1 {
		return nil, fmt.Errorf("microbench: workload %s is map-only; the simulated engines model shuffle-bearing jobs (run it on localrun or dist)", cfg.Workload)
	}
	job, err := buildWorkloadJob(cfg)
	if err != nil {
		return nil, err
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	splits, err := job.Input.Splits(job.Conf)
	if err != nil {
		return nil, err
	}

	nr := cfg.NumReduces
	parts := make([][]mrsim.SegSpec, len(splits))
	var postCombine [][]mrsim.SegSpec
	if job.Combiner != nil {
		postCombine = make([][]mrsim.SegSpec, len(splits))
	}
	var rawBytes, inputRecords, inputBytes int64
	for m, split := range splits {
		tally := newTallyCollector(taskPartitioner(job, m), nr, job.Combiner != nil)
		reader, err := job.Input.Reader(split, job.Conf)
		if err != nil {
			return nil, err
		}
		mapper := job.Mapper()
		for {
			k, v, ok, err := reader.Next()
			if err != nil {
				reader.Close()
				return nil, fmt.Errorf("microbench: spec map %d input: %w", m, err)
			}
			if !ok {
				break
			}
			inputRecords++
			if err := mapper.Map(k, v, tally, mapreduce.NullReporter{}); err != nil {
				reader.Close()
				return nil, fmt.Errorf("microbench: spec map %d: %w", m, err)
			}
		}
		if err := mapper.Close(tally, mapreduce.NullReporter{}); err != nil {
			reader.Close()
			return nil, fmt.Errorf("microbench: spec map %d close: %w", m, err)
		}
		if ib, ok := reader.(interface{ InputBytes() int64 }); ok {
			inputBytes += ib.InputBytes()
		}
		if err := reader.Close(); err != nil {
			return nil, err
		}
		parts[m] = tally.segs
		if postCombine != nil {
			postCombine[m] = tally.combinedSegs()
		}
		rawBytes += tally.raw
	}

	return &mrsim.JobSpec{
		Partitions: parts,
		// Map output keys are Text for every workload.
		TypeFactor:        1.18,
		PostCombine:       postCombine,
		MapOutputRawBytes: rawBytes,
		MapInputRecords:   inputRecords,
		MapInputBytes:     inputBytes,
	}, nil
}

func taskPartitioner(job *mapreduce.Job, mapTask int) mapreduce.Partitioner {
	if job.PartitionerForTask != nil {
		return job.PartitionerForTask(mapTask)
	}
	return job.Partitioner()
}

// tallyCollector plays the collector role during spec building: it routes
// each emitted record through the job's real partitioner and accumulates
// the exact per-(map, reduce) record and IFile byte matrix — the framing
// arithmetic kvbuf's segment writer would produce, without writing bytes.
type tallyCollector struct {
	part mapreduce.Partitioner
	nr   int
	segs []mrsim.SegSpec
	raw  int64 // key+value serialization, no IFile framing (MAP_OUTPUT_BYTES)
	enc  *writable.DataOutput

	// distinct[r] maps each distinct key in partition r to its marshaled
	// length, for the combiner's post-collapse matrix. The combinable
	// workloads (wordcount, grep) emit LongWritable values, so a combined
	// group is one record of klen + 8 payload bytes.
	distinct []map[string]int
}

func newTallyCollector(part mapreduce.Partitioner, nr int, combine bool) *tallyCollector {
	t := &tallyCollector{
		part: part,
		nr:   nr,
		segs: make([]mrsim.SegSpec, nr),
		enc:  writable.NewDataOutput(256),
	}
	if combine {
		t.distinct = make([]map[string]int, nr)
		for r := range t.distinct {
			t.distinct[r] = make(map[string]int)
		}
	}
	return t
}

func (t *tallyCollector) Collect(key, value writable.Writable) error {
	t.enc.Reset()
	key.Write(t.enc)
	kl := t.enc.Len()
	value.Write(t.enc)
	vl := t.enc.Len() - kl

	p := t.part.Partition(key, value, t.nr)
	if p < 0 || p >= t.nr {
		return fmt.Errorf("microbench: workload partitioner returned %d for %d reduces", p, t.nr)
	}
	t.segs[p].Records++
	t.segs[p].Bytes += int64(writable.VLongEncodedLen(int64(kl)) + writable.VLongEncodedLen(int64(vl)) + kl + vl)
	t.raw += int64(kl + vl)
	if t.distinct != nil {
		// A lookup by converted bytes does not allocate: only a key's first
		// sight in the partition interns it.
		keyBytes := t.enc.Bytes()[:kl]
		if _, seen := t.distinct[p][string(keyBytes)]; !seen {
			t.distinct[p][string(keyBytes)] = kl
		}
	}
	return nil
}

// combinedSegs is the post-combine matrix for this map: one record per
// distinct key per partition, each a (key, LongWritable sum) pair.
func (t *tallyCollector) combinedSegs() []mrsim.SegSpec {
	segs := make([]mrsim.SegSpec, t.nr)
	const vl = 8 // LongWritable
	for r, keys := range t.distinct {
		for _, kl := range keys {
			segs[r].Records++
			segs[r].Bytes += int64(writable.VLongEncodedLen(int64(kl)) + writable.VLongEncodedLen(vl) + kl + vl)
		}
	}
	return segs
}
