package microbench

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
)

// Engine selects the simulated Hadoop runtime generation.
type Engine string

// Supported engines. The simulated generations (mrv1, yarn) run under
// microbench.Run; dist names the real multi-process runtime, executed by
// internal/distrun (mrbench dispatches -engine=dist there — the simulator
// rejects it).
const (
	EngineMRv1 Engine = "mrv1" // Hadoop 1.x (paper: 1.2.1)
	EngineYARN Engine = "yarn" // Hadoop 2.x NextGen (paper: 2.1.0-beta)
	EngineDist Engine = "dist" // real coordinator + worker processes (internal/distrun)
)

// ClusterID selects a testbed preset.
type ClusterID string

// The paper's two testbeds.
const (
	ClusterA ClusterID = "A" // OSU Intel Westmere, 1/10 GigE + IB QDR
	ClusterB ClusterID = "B" // TACC Stampede, IB FDR
)

// Config is one micro-benchmark invocation: the user-specified parameters
// of Fig. 1(a) plus the environment to run them in.
type Config struct {
	// Benchmark-level parameters.
	Pattern     Pattern
	KeySize     int    // key payload bytes
	ValueSize   int    // value payload bytes
	PairsPerMap int64  // key/value pairs generated by each map task
	DataType    string // "BytesWritable" (default) or "Text"

	// Hadoop-level parameters.
	NumMaps    int
	NumReduces int
	// ParallelCopies bounds each reduce task's concurrent shuffle fetch
	// connections (mapreduce.reduce.shuffle.parallelcopies). Zero keeps
	// the Hadoop default of 5.
	ParallelCopies int
	// ShuffleMemBudget bounds the bytes of fetched map output a reduce task
	// may hold in memory (mapreduce.reduce.shuffle.input.buffer.bytes). The
	// one knob drives both paths: the real executor's bounded segment pool
	// and background spiller, and the simulated engines' multi-pass disk
	// merge model. Zero keeps the pool unbounded in localrun and the
	// heap-percent default in the sims.
	ShuffleMemBudget int64
	// MergeFactor bounds merge fan-in (io.sort.factor) on both the map and
	// reduce sides. Zero keeps the Hadoop default of 10.
	MergeFactor int
	// IOSortMB sizes the map-side sort buffer in MiB
	// (mapreduce.task.io.sort.mb). With SpillPercent it sets how often map
	// tasks spill — the fig-spill ladder's x-axis. Zero keeps the Hadoop
	// default of 100.
	IOSortMB int
	// SpillPercent is the sort-buffer fill fraction that triggers a spill
	// (mapreduce.map.sort.spill.percent). Zero keeps the Hadoop default of
	// 0.80.
	SpillPercent float64
	// SyncSpill disables the background SpillThread
	// (mapreduce.map.spill.overlap=false): every spill seals inline on the
	// mapper, the pre-overlap behavior. Output bytes and counters are
	// identical either way — the knob isolates the overlap's time win.
	SyncSpill bool
	// Slowstart is the completed-map fraction before reducers launch
	// (mapreduce.job.reduce.slowstart.completedmaps) — one knob read by
	// both the simulated engines and the real localrun executor. Zero
	// keeps the Hadoop default of 0.05; 1.0 is a strict barrier.
	Slowstart float64
	// Codec names the map-output compression codec ("" or "none" disables;
	// "deflate" turns on map-output compression). The same knob drives both
	// paths: the real executor, whose spills stay in memory, compresses each
	// map's partition once as it registers it and ships it compressed; the
	// simulated engines model Hadoop's spill files, the byte reduction and
	// the compress/decompress CPU of every spill and merge pass.
	Codec string
	// Combine runs the suite's first-value combiner over sorted runs at
	// spill and merge. GenMapper values are constant filler per data type,
	// so keeping the first value per key group is value-lossless — the
	// combiner only collapses multiplicity, exactly the byte reduction the
	// sim engines model from distinct-key counts.
	Combine   bool
	Engine    Engine
	ExtraConf map[string]string // raw Hadoop conf overrides

	// Real-input workload parameters. Workload "" keeps the synthetic
	// GenMapper benchmark; otherwise it names an internal/apps application
	// (wordcount, grep, invindex, hsgen, hssort, hsvalidate) and the
	// benchmark-level knobs above change meaning: PairsPerMap is only read
	// by hsgen (rows per map), Pattern/KeySize/ValueSize/DataType are
	// ignored (the workload's own key/value distribution governs).
	Workload string
	// InputSpec names the input corpus for file-backed workloads:
	// "dir:<path>" or a generated spec like "text:seed=1,files=2,bytes=4096,
	// shape=mixed" (see internal/inputformat). Generated corpora are
	// materialized content-addressed, so repro flags replay against
	// identical bytes — including inside distrun worker processes.
	InputSpec string
	// OutputDir, when set, commits reduce output as text part files there
	// (chained pipelines point the next stage's InputSpec at it). Empty
	// discards output.
	OutputDir string
	// SplitSize overrides the input split granularity in bytes (0 = the
	// inputformat default). Small values force records to straddle split
	// boundaries, which is the point of the chunk-spanning reader.
	SplitSize int64
	// GrepPattern is the grep workload's regexp (default "data").
	GrepPattern string

	// Environment.
	Cluster     ClusterID
	Slaves      int
	Network     string // netsim profile name
	RDMAShuffle bool   // use the MRoIB shuffle engine (case study)

	// Seed drives MR-RAND / MR-SKEW randomness (per-map streams derive
	// from it deterministically).
	Seed int64

	// Faults optionally injects seeded failures. The same plan drives both
	// execution paths: the simulated engines via the JobSpec and the real
	// localrun executor via its Options.
	Faults *faultinject.Plan

	// MonitorInterval enables resource-utilization sampling when > 0.
	MonitorInterval time.Duration

	// Model overrides the execution cost model (nil = costmodel.Default()),
	// for calibration and sensitivity studies.
	Model *costmodel.Model
}

// Normalize returns a validated copy with every default made explicit —
// exactly the configuration Run executes. Cache keys must be computed over
// the normalized form so a zeroed field and its spelled-out default hash to
// the same entry.
func (c Config) Normalize() (Config, error) {
	if c.Codec == "none" {
		c.Codec = ""
	}
	if err := c.foldExtraConf(); err != nil {
		return c, err
	}
	c = c.defaulted()
	for _, k := range Knobs {
		if err := k.check(&c); err != nil {
			return c, fmt.Errorf("microbench: -%s %s: %w", k.Name, k.Get(&c), err)
		}
	}
	if c.Workload != "" {
		var err error
		if c, err = c.withWorkloadDefaults(); err != nil {
			return c, err
		}
	} else if c.InputSpec != "" || c.OutputDir != "" || c.SplitSize != 0 || c.GrepPattern != "" {
		return c, fmt.Errorf("microbench: input/output/split options require a workload")
	}
	if c.PairsPerMap <= 0 {
		return c, fmt.Errorf("microbench: PairsPerMap must be positive")
	}
	if _, err := SerializedPairLen(c.DataType, c.KeySize, c.ValueSize); err != nil {
		return c, err
	}
	if _, ok := netsim.ProfileByName(c.Network); !ok {
		return c, fmt.Errorf("microbench: unknown network profile %q", c.Network)
	}
	if _, ok := kvbuf.CodecByName(c.Codec); !ok {
		return c, fmt.Errorf("microbench: unknown codec %q (have %v)", c.Codec, kvbuf.CodecNames())
	}
	return c, nil
}

// defaulted returns c with every default made explicit and nothing checked.
// A knob whose flag has a default (pattern, slaves, network, ...) takes it
// from its row; the rest are defaults no flag spells: payload sizes follow
// -kv's 1024, task counts follow the slave count.
func (c Config) defaulted() Config {
	for _, k := range Knobs {
		if !k.Fault && !k.explicit && k.isZero(&c) {
			_ = k.set(&c, k.Default) // a row's own default always parses
		}
	}
	if c.KeySize <= 0 {
		c.KeySize = 1024
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 1024
	}
	if c.NumMaps <= 0 {
		c.NumMaps = 4 * c.Slaves
	}
	if c.NumReduces <= 0 {
		c.NumReduces = 2 * c.Slaves
	}
	if c.Slowstart == 0 {
		c.Slowstart = 0.05
	}
	return c
}

// foldExtraConf gives every knob one spelling. An ExtraConf entry naming a
// key a knob owns is parsed and range-checked by that row into the typed
// field — so -conf wins over the flag — and leaves ExtraConf (a fresh map:
// the caller's is never edited); every engine, cache key, repro line and
// mrcheck predicate then reads the same value. Any other key passes through
// to the job conf raw. Keys fold in sorted order, so the error reported for
// two bad values does not depend on map iteration.
func (c *Config) foldExtraConf() error {
	var rest map[string]string
	for _, key := range slices.Sorted(maps.Keys(c.ExtraConf)) {
		value := c.ExtraConf[key]
		k := findKnob(func(k *Knob) bool { return slices.Contains(k.Keys, key) })
		if k == nil {
			if rest == nil {
				rest = make(map[string]string)
			}
			rest[key] = value
			continue
		}
		fold := k.fromConf
		if fold == nil {
			fold = func(c *Config, _, v string) error { return k.Set(c, v) }
		}
		if err := fold(c, key, value); err != nil {
			return &mapreduce.JobError{Msg: fmt.Sprintf("microbench: conf key %q = %q: %v", key, value, err)}
		}
	}
	if len(c.ExtraConf) > 0 {
		c.ExtraConf = rest
	}
	return nil
}

// withWorkloadDefaults validates and defaults the real-input workload
// surface. Kept free of filesystem access: Normalize is called for cache
// keys and flag round-trips, so corpus materialization happens at job
// build, never here.
func (c Config) withWorkloadDefaults() (Config, error) {
	if !apps.Known(c.Workload) {
		return c, fmt.Errorf("microbench: unknown workload %q (have %v)", c.Workload, apps.Workloads())
	}
	if apps.FileBacked(c.Workload) {
		if c.InputSpec == "" {
			return c, fmt.Errorf("microbench: workload %s requires an input spec (-input)", c.Workload)
		}
		if !strings.Contains(c.InputSpec, ":") {
			return c, fmt.Errorf("microbench: input spec %q has no scheme (want dir:<path> or text:...)", c.InputSpec)
		}
		// PairsPerMap is meaningless over real splits; pin it so the
		// synthetic-benchmark validation below and repro round-trips agree.
		if c.PairsPerMap <= 0 {
			c.PairsPerMap = 1
		}
	} else if c.InputSpec != "" {
		return c, fmt.Errorf("microbench: workload %s synthesizes its input; drop -input", c.Workload)
	}
	switch c.Workload {
	case apps.Grep:
		if c.GrepPattern == "" {
			c.GrepPattern = "data"
		}
		if _, err := regexp.Compile(c.GrepPattern); err != nil {
			return c, fmt.Errorf("microbench: grep pattern: %v", err)
		}
	case apps.HSGen:
		// Map-only: each map commits its generated rows straight to the
		// output directory. Under a fault plan its attempts re-execute like
		// every other task's, but no fault site strikes them (a map-only
		// attempt has no spill, registration or shuffle to fail); the plan
		// strikes in the hssort and hsvalidate stages.
		c.NumReduces = 0
	case apps.HSValidate:
		// The cross-split ordering chain folds in one place.
		c.NumReduces = 1
	}
	if c.GrepPattern != "" && c.Workload != apps.Grep {
		return c, fmt.Errorf("microbench: grep pattern set for workload %s", c.Workload)
	}
	if c.Combine && c.Workload != apps.WordCount && c.Workload != apps.Grep {
		return c, fmt.Errorf("microbench: workload %s has no combiner (sum combining only applies to wordcount/grep)", c.Workload)
	}
	return c, nil
}

// PairLen returns the serialized bytes of one intermediate record.
func (c Config) PairLen() int {
	c = c.defaulted()
	n, err := SerializedPairLen(c.DataType, c.KeySize, c.ValueSize)
	if err != nil {
		return 0
	}
	return n
}

// ShuffleBytes returns the job's total intermediate data volume.
func (c Config) ShuffleBytes() int64 {
	return int64(c.PairLen()) * c.PairsPerMap * int64(c.defaulted().NumMaps)
}

// WithShuffleSize sets PairsPerMap so the job's total shuffle volume is
// approximately totalBytes (the paper's x-axis).
func (c Config) WithShuffleSize(totalBytes int64) Config {
	if pair := int64(c.PairLen()); pair > 0 {
		c.PairsPerMap = max(1, totalBytes/pair/int64(c.defaulted().NumMaps))
	}
	return c
}

// HadoopConf materializes the effective job configuration: each knob that
// owns a conf key writes its value unless it sits at "keep the default",
// then raw ExtraConf entries go on top.
func (c Config) HadoopConf() *mapreduce.Conf {
	conf := mapreduce.NewConf().Set(mapreduce.ConfJobName, fmt.Sprintf("%s-%s", c.Pattern, c.DataType))
	for _, k := range Knobs {
		switch {
		case len(k.Keys) == 0 || !k.spelled(&c):
		case k.toConf != nil:
			k.toConf(&c, conf)
		default:
			conf.Set(k.Keys[0], k.Get(&c))
		}
	}
	if c.Combine {
		name := "first-value"
		if c.Workload != "" {
			name = "sum"
		}
		conf.Set(mapreduce.ConfCombineClass, name)
	}
	if c.Workload != "" {
		conf.Set(mapreduce.ConfJobName, c.Workload)
	}
	for k, v := range c.ExtraConf {
		conf.Set(k, v)
	}
	return conf
}

// Workload conf keys (informational; the job builder works from the Config
// itself, but the keys make job confs self-describing and let task-side
// code reach workload parameters).
const (
	ConfWorkload    = "mrmicro.workload"
	ConfInputSpec   = "mrmicro.input.spec"
	ConfGrepPattern = "mrmicro.grep.pattern"
)

// Label is a short human-readable identifier for sweeps and reports.
func (c Config) Label() string {
	if c.Workload != "" {
		l := fmt.Sprintf("%s/%s/%dR", c.Workload, c.Network, c.NumReduces)
		if c.Codec != "" && c.Codec != "none" {
			l += "/" + c.Codec
		}
		if c.Combine {
			l += "/combine"
		}
		return l
	}
	l := fmt.Sprintf("%s/%s/%dM-%dR/%s", c.Pattern, c.Network, c.NumMaps, c.NumReduces, c.DataType)
	if c.Codec != "" && c.Codec != "none" {
		l += "/" + c.Codec
	}
	if c.Combine {
		l += "/combine"
	}
	return l
}
