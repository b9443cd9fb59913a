package microbench

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/cliutil"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
)

// ShrinkStep is how mrcheck's shrinker simplifies a knob while minimizing a
// failing configuration.
type ShrinkStep int

const (
	ShrinkNone  ShrinkStep = iota // no setting is simpler than another (pattern, network)
	ShrinkReset                   // back to Simplest
	ShrinkHalve                   // a count or size: bisect toward 1
)

// Knob is one row of the knob table: everything the suite knows about one
// CLI-settable parameter. BindFlags, ReproFlags, Normalize's range checks
// and -conf folding, HadoopConf, the configuration decoder (Draws.Config)
// and mrcheck's generator, shrinker and twin checks all walk Knobs, so
// adding a knob is adding a Config (or faultinject.Plan) field and one row
// here, with its draw.
type Knob struct {
	Name     string   // flag name, without the dash
	Default  string   // flag default, in flag form
	Keys     []string // Hadoop conf keys the knob owns: a -conf override of one folds into the field
	Fault    bool     // the field lives in Config.Faults, which must be non-nil to Get or Set
	EnvOnly  bool     // changes how a job runs, never what it shuffles: points of a Sweep differing only here share one matrix
	Shrink   ShrinkStep
	Simplest string // ShrinkReset target: Default unless the row names another

	// Get returns the knob's value in c, in flag form.
	Get func(c *Config) string

	explicit bool     // zero is a value, not "keep the default": always spelled in repro lines and the job conf
	boolean  bool     // spelled as a bare -name
	min, max float64  // valid range of a non-zero value (zero keeps the default); max 0 is unbounded
	choices  []string // valid values of an enumerated knob

	// The generator's draw: keep the default with chance keep, else take one
	// of draws (weighted by repetition) or a point of the log-uniform range
	// [lo, hi]. A row with neither is left at its default.
	keep   float64
	draws  []string
	lo, hi int64

	bind     func(fs *flag.FlagSet) // registers the flag, with its usage text
	set      func(c *Config, s string) error
	isZero   func(c *Config) bool
	clear    func(c *Config)
	toConf   func(c *Config, conf *mapreduce.Conf)    // nil: Keys[0] = the flag form
	fromConf func(c *Config, key, value string) error // nil: Set
}

// kind is what a typed row constructor supplies once for every knob of one
// Go type: how the flag package registers it (which decides the type and
// default its help text shows), and how it parses and prints.
type kind[T comparable] struct {
	bind   func(fs *flag.FlagSet, name string, def T, usage string) *T
	parse  func(string) (T, error)
	format func(T) string
}

var (
	ints      = kind[int]{(*flag.FlagSet).Int, strconv.Atoi, strconv.Itoa}
	int64s    = kind[int64]{(*flag.FlagSet).Int64, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }, func(v int64) string { return strconv.FormatInt(v, 10) }}
	floats    = kind[float64]{(*flag.FlagSet).Float64, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }, formatFloat}
	bools     = kind[bool]{(*flag.FlagSet).Bool, strconv.ParseBool, strconv.FormatBool}
	strs      = kind[string]{(*flag.FlagSet).String, func(s string) (string, error) { return s, nil }, func(s string) string { return s }}
	durations = kind[time.Duration]{(*flag.FlagSet).Duration, time.ParseDuration, time.Duration.String}
	// sizes are byte counts that parse "64MB" as well as "67108864", so the
	// flag package sees a string flag (help reads "-shufflemem string"),
	// empty when unset.
	sizes = kind[int64]{
		bind: func(fs *flag.FlagSet, name string, _ int64, usage string) *int64 {
			fs.String(name, "", usage)
			return nil
		},
		parse: func(s string) (int64, error) {
			if s == "" {
				return 0, nil
			}
			return cliutil.ParseSize(s)
		},
		format: int64s.format,
	}
)

// row builds a knob of kind k over the Config field at returns.
func row[T comparable](k kind[T], name string, def T, usage string, at func(*Config) *T) Knob {
	var zero T
	_, boolean := any(zero).(bool)
	return Knob{
		Name: name, Default: k.format(def), Simplest: k.format(def), boolean: boolean,
		bind: func(fs *flag.FlagSet) { k.bind(fs, name, def, usage) },
		Get:  func(c *Config) string { return k.format(*at(c)) },
		set: func(c *Config, s string) error {
			v, err := k.parse(s)
			if err == nil {
				*at(c) = v
			}
			return err
		},
		isZero: func(c *Config) bool { return *at(c) == zero },
		clear:  func(c *Config) { *at(c) = zero },
	}
}

// faultRow builds a knob over a field of the config's fault plan.
func faultRow[T comparable](k kind[T], name, usage string, at func(*faultinject.Plan) *T) Knob {
	var zero T
	r := row(k, name, zero, usage, func(c *Config) *T { return at(c.Faults) })
	r.Fault = true
	return r
}

// Row modifiers, chained onto a constructor in the table. within bounds a
// non-zero value; max 0 leaves it unbounded above. draw and drawLog give the
// generator's draw, which stays inside the row's own bounds.
func (k Knob) owns(keys ...string) Knob                  { k.Keys = keys; return k }
func (k Knob) always() Knob                              { k.explicit = true; return k }
func (k Knob) env() Knob                                 { k.EnvOnly = true; return k }
func (k Knob) within(min, max float64) Knob              { k.min, k.max = min, max; return k }
func (k Knob) oneOf(choices ...string) Knob              { k.choices = choices; return k }
func (k Knob) shrink(s ShrinkStep) Knob                  { k.Shrink = s; return k }
func (k Knob) resetTo(simplest string) Knob              { k.Shrink, k.Simplest = ShrinkReset, simplest; return k }
func (k Knob) draw(keep float64, choices ...string) Knob { k.keep, k.draws = keep, choices; return k }
func (k Knob) drawLog(keep float64, lo, hi int64) Knob   { k.keep, k.lo, k.hi = keep, lo, hi; return k }
func (k Knob) conf(to func(*Config, *mapreduce.Conf), from func(*Config, string, string) error) Knob {
	k.toConf, k.fromConf = to, from
	return k
}

// taskFaultRates are the draws of every fault site the in-process engines act on.
var taskFaultRates = []string{"0.05", "0.1", "0.2", "0.3"}

// Knobs is the table, in the order repro lines spell it.
var Knobs = []Knob{
	// Benchmark-level parameters (the paper's Fig. 1(a)).
	row(strs, "pattern", "MR-AVG", "micro-benchmark: MR-AVG, MR-RAND or MR-SKEW", func(c *Config) *string { return (*string)(&c.Pattern) }).oneOf(string(MRAvg), string(MRRand), string(MRSkew)).draw(1.0/3, string(MRRand), string(MRSkew)),
	row(strs, "datatype", "BytesWritable", "intermediate data type: BytesWritable or Text", func(c *Config) *string { return &c.DataType }).shrink(ShrinkReset).draw(2.0/3, "Text"),
	row(ints, "keysize", 0, "key size override (bytes)", func(c *Config) *int { return &c.KeySize }).shrink(ShrinkHalve).drawLog(0, 1, 64<<10),
	row(ints, "valuesize", 0, "value size override (bytes)", func(c *Config) *int { return &c.ValueSize }).shrink(ShrinkHalve).drawLog(0, 1, 64<<10),
	row(int64s, "pairs", 0, "key/value pairs per map task", func(c *Config) *int64 { return &c.PairsPerMap }).shrink(ShrinkHalve),

	// Hadoop-level parameters.
	row(ints, "maps", 0, "map tasks (default 4 per slave)", func(c *Config) *int { return &c.NumMaps }).owns(mapreduce.ConfNumMaps).always().shrink(ShrinkHalve).draw(0, "1", "2", "3", "4", "5", "6", "7", "8"),
	row(ints, "reduces", 0, "reduce tasks (default 2 per slave)", func(c *Config) *int { return &c.NumReduces }).owns(mapreduce.ConfNumReduces).always().shrink(ShrinkHalve).draw(0, "1", "2", "3", "4", "5", "6"),
	row(ints, "slaves", 4, "slave node count", func(c *Config) *int { return &c.Slaves }).env().within(1, 0).shrink(ShrinkHalve).draw(0, "1", "2", "3", "4"),
	row(strs, "engine", "mrv1", "runtime: mrv1 or yarn (simulated), dist (real multi-process)", func(c *Config) *string { return (*string)(&c.Engine) }).env().oneOf(string(EngineMRv1), string(EngineYARN), string(EngineDist)),
	row(strs, "cluster", "A", "testbed: A (OSU Westmere) or B (TACC Stampede)", func(c *Config) *string { return (*string)(&c.Cluster) }).env().oneOf(string(ClusterA), string(ClusterB)).draw(0.8, string(ClusterB)),
	row(strs, "network", netsim.OneGigE.Name, "interconnect profile (see mrcluster -profiles)", func(c *Config) *string { return &c.Network }).env().draw(0.7, netsim.TenGigE.Name, netsim.IPoIBQDR32.Name, netsim.IPoIBFDR56.Name),
	row(int64s, "seed", 1, "seed for MR-RAND / MR-SKEW randomness", func(c *Config) *int64 { return &c.Seed }).always().shrink(ShrinkReset).drawLog(0, 1, 1<<62),
	// The shrinker's simplest schedule is the strict barrier, not the default.
	row(floats, "slowstart", 0, "completed-map fraction before reducers launch, for both the sim and the real executor (default 0.05, Hadoop's mapreduce.job.reduce.slowstart.completedmaps; 1.0 = strict barrier)", func(c *Config) *float64 { return &c.Slowstart }).env().owns(mapreduce.ConfSlowstartMaps).within(0, 1).resetTo("1").draw(0.25, "0.25", "0.5", "1"),
	row(ints, "parallelcopies", 0, "concurrent shuffle fetch connections per reduce task (default 5, Hadoop's mapreduce.reduce.shuffle.parallelcopies)", func(c *Config) *int { return &c.ParallelCopies }).env().owns(mapreduce.ConfParallelCopies).within(1, 0).shrink(ShrinkReset).draw(0.2, "1", "2", "3", "4"),
	row(sizes, "shufflemem", 0, "reduce-side in-memory shuffle budget, e.g. 64MB (Hadoop's mapreduce.reduce.shuffle.input.buffer in byte form; default unbounded in the real executor, heap-percent in the sims)", func(c *Config) *int64 { return &c.ShuffleMemBudget }).env().owns(mapreduce.ConfShuffleInputBufBytes).within(1, 0).shrink(ShrinkReset).draw(2.0/3, "1", "1", "4096", "65536"),
	row(ints, "mergefactor", 0, "merge fan-in on both sides (default 10, Hadoop's mapreduce.task.io.sort.factor)", func(c *Config) *int { return &c.MergeFactor }).env().owns(mapreduce.ConfIOSortFactor).within(2, 0).shrink(ShrinkReset).draw(0.5, "2", "3", "4"),
	row(ints, "iosortmb", 0, "map-side sort buffer size in MiB (default 100, Hadoop's mapreduce.task.io.sort.mb)", func(c *Config) *int { return &c.IOSortMB }).env().owns(mapreduce.ConfIOSortMB).within(1, 0).shrink(ShrinkReset).draw(2.0/3, "1", "1", "2"),
	row(floats, "spillpercent", 0, "sort-buffer fill fraction that triggers a spill (default 0.80, Hadoop's mapreduce.map.sort.spill.percent)", func(c *Config) *float64 { return &c.SpillPercent }).env().owns(mapreduce.ConfSortSpillPercent).within(0, 1).shrink(ShrinkReset).draw(0.75, "0.3", "0.5", "0.8"),
	row(bools, "syncspill", false, "disable the background SpillThread: seal every spill inline on the mapper (mapreduce.map.spill.overlap=false)", func(c *Config) *bool { return &c.SyncSpill }).env().owns(mapreduce.ConfSpillOverlap).shrink(ShrinkReset).draw(0.8, "true").conf(
		func(c *Config, conf *mapreduce.Conf) { conf.SetBool(mapreduce.ConfSpillOverlap, !c.SyncSpill) },
		func(c *Config, _, v string) error {
			overlap, err := strconv.ParseBool(v)
			c.SyncSpill = !overlap
			return err
		}),
	// Two keys, Hadoop's rule: compress=true turns compression on (deflate
	// unless a codec is named), the codec key alone only names it. Overrides
	// fold in key order, so the switch is seen before the name.
	row(strs, "codec", "", "map-output compression codec: none (default) or deflate (Hadoop's mapreduce.map.output.compress.codec)", func(c *Config) *string { return &c.Codec }).env().owns(mapreduce.ConfCompressMapOut, mapreduce.ConfCompressCodec).shrink(ShrinkReset).draw(2.0/3, "deflate").conf(
		func(c *Config, conf *mapreduce.Conf) {
			conf.SetBool(mapreduce.ConfCompressMapOut, true).Set(mapreduce.ConfCompressCodec, c.Codec)
		},
		func(c *Config, key, v string) error {
			if key == mapreduce.ConfCompressCodec {
				if c.Codec != "" {
					c.Codec = v
				}
				return nil
			}
			on, err := strconv.ParseBool(v)
			if !on {
				c.Codec = ""
			} else if c.Codec == "" {
				c.Codec = "deflate"
			}
			return err
		}),
	row(bools, "combine", false, "run the first-value combiner at spill and merge (map-side aggregation)", func(c *Config) *bool { return &c.Combine }).shrink(ShrinkReset).draw(2.0/3, "true"),

	// Real-input workload parameters.
	row(strs, "workload", "", "real-input workload: wordcount, grep, invindex, hsgen, hssort or hsvalidate (default: the synthetic generator benchmark)", func(c *Config) *string { return &c.Workload }).owns(ConfWorkload).draw(0.8, apps.WordCount, apps.WordCount, apps.Grep, apps.Grep, apps.InvIndex, apps.HSSort),
	row(strs, "input", "", "workload input spec: dir:<path>, or a generated corpus like text:seed=1,files=2,bytes=4096,shape=mixed", func(c *Config) *string { return &c.InputSpec }).owns(ConfInputSpec),
	row(strs, "outdir", "", "commit reduce output as text part files in this directory (default: discard)", func(c *Config) *string { return &c.OutputDir }),
	row(sizes, "splitsize", 0, "input split granularity, e.g. 64KB (default 1MB)", func(c *Config) *int64 { return &c.SplitSize }).owns(inputformat.ConfSplitSize).within(1, 0).drawLog(0.5, 48, 4096),
	row(strs, "grep", "", "grep workload regexp (default \"data\")", func(c *Config) *string { return &c.GrepPattern }).owns(ConfGrepPattern).draw(0.25, "the", "[a-z]o", "zqzq"),

	// Environment.
	row(bools, "rdma", false, "use the RDMA-enhanced shuffle (MRoIB case study)", func(c *Config) *bool { return &c.RDMAShuffle }).env().draw(0.8, "true"),

	// Fault plan. A zero -fault-seed falls back to -seed when flags are parsed.
	faultRow(int64s, "fault-seed", "seed for injected faults (default: -seed)", func(p *faultinject.Plan) *int64 { return &p.Seed }).always().drawLog(0, 1, 1<<62),
	faultRow(floats, "fault-map-rate", "probability a map attempt dies mid-shuffle-registration", func(p *faultinject.Plan) *float64 { return &p.MapFailureRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-reduce-rate", "probability a reduce attempt dies after its shuffle", func(p *faultinject.Plan) *float64 { return &p.ReduceFailureRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-shuffle-drop", "probability a shuffle fetch drops its connection", func(p *faultinject.Plan) *float64 { return &p.ShuffleDropRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-shuffle-truncate", "probability a shuffle fetch delivers a truncated payload", func(p *faultinject.Plan) *float64 { return &p.ShuffleTruncateRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-shuffle-slow", "probability a shuffle fetch is served by a slow peer", func(p *faultinject.Plan) *float64 { return &p.ShuffleSlowRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-spill", "probability a map-side spill hits a transient I/O error", func(p *faultinject.Plan) *float64 { return &p.SpillErrorRate }).shrink(ShrinkReset).draw(0.9, taskFaultRates...),
	faultRow(floats, "fault-worker-kill", "probability a worker process dies at a checkpoint (dist engine only)", func(p *faultinject.Plan) *float64 { return &p.WorkerKillRate }).shrink(ShrinkReset).draw(0.9, "0.05", "0.1", "0.15"),
	faultRow(floats, "fault-partition", "probability a worker is partitioned from the coordinator at a checkpoint (dist engine only)", func(p *faultinject.Plan) *float64 { return &p.PartitionRate }).shrink(ShrinkReset).draw(0.9, "0.03", "0.05", "0.08"),
	faultRow(durations, "fault-shuffle-slowness", "delay of an injected slow fetch (default 2ms)", func(p *faultinject.Plan) *time.Duration { return &p.ShuffleSlowness }).draw(0, "50µs", "100µs", "200µs"),
	faultRow(durations, "fault-partition-duration", "length of an injected partition (default 400ms)", func(p *faultinject.Plan) *time.Duration { return &p.PartitionDuration }).draw(0.5, "100ms", "200ms"),
	faultRow(ints, "fault-max-attempts", "task attempt bound under faults (default 4, Hadoop's mapreduce.map.maxattempts)", func(p *faultinject.Plan) *int { return &p.MaxTaskAttempts }).draw(0, "8"),
	faultRow(ints, "fault-max-fetch-attempts", "shuffle-fetch attempt bound per segment (default 4)", func(p *faultinject.Plan) *int { return &p.MaxFetchAttempts }).draw(0, "8"),
}

// KnobByName returns the row of the named flag, nil when there is none.
func KnobByName(name string) *Knob {
	return findKnob(func(k *Knob) bool { return k.Name == name })
}

func findKnob(match func(*Knob) bool) *Knob {
	for i := range Knobs {
		if match(&Knobs[i]) {
			return &Knobs[i]
		}
	}
	return nil
}

// Set parses s into the knob's field of c and checks it against the row's
// range. A fault knob first gives c its own copy of the plan: Config copies
// share the pointer.
func (k Knob) Set(c *Config, s string) error {
	if k.Fault {
		p := *c.Faults
		c.Faults = &p
	}
	if err := k.set(c, s); err != nil {
		return err
	}
	return k.check(c)
}

// Reset sets the knob to the value the shrinker finds simplest and reports
// whether that changed c.
func (k Knob) Reset(c *Config) bool {
	was := k.Get(c)
	return k.Set(c, k.Simplest) == nil && k.Get(c) != was
}

// drawn reports whether the generator draws the knob.
func (k Knob) drawn() bool { return k.draws != nil || k.hi > 0 }

// Draw reads a value of the knob from d, in flag form: its default when the
// row has no draw or d keeps it (a row without a draw reads nothing), else
// one of its draws.
func (k Knob) Draw(d *Draws) string {
	if !k.drawn() || d.keeps(k.keep) {
		return k.Default
	}
	return k.pick(d)
}

// pick reads one of the row's draws from d, never its kept default.
func (k Knob) pick(d *Draws) string {
	if k.draws != nil {
		return k.draws[d.Below(int64(len(k.draws)))]
	}
	return strconv.FormatInt(d.logUniform(k.lo, k.hi), 10)
}

// check validates the knob's value in c against its row's choices or range.
// A zero numeric value always passes: it keeps the default, in either
// spelling.
func (k Knob) check(c *Config) error {
	if len(k.choices) > 0 && !slices.Contains(k.choices, k.Get(c)) {
		return fmt.Errorf("want one of %v", k.choices)
	}
	if k.min == 0 && k.max == 0 {
		return nil
	}
	v, err := strconv.ParseFloat(k.Get(c), 64)
	if err != nil || v == 0 || (v >= k.min && (k.max == 0 || v <= k.max)) {
		return nil
	}
	if k.max == 0 {
		return fmt.Errorf("want 0 (the default) or a value at least %g", k.min)
	}
	return fmt.Errorf("want 0 (the default) or a value in [%g, %g]", k.min, k.max)
}

// spelled reports whether repro lines and the job conf spell the knob out
// for c: always when zero is a value, otherwise when it is not at zero.
func (k Knob) spelled(c *Config) bool {
	return !(k.Fault && c.Faults == nil) && (k.explicit || !k.isZero(c))
}

// readSimKeys reads, by its Go type, every conf key no knob owns that the
// simulated engines and the cost model read lazily inside sim procs, where a
// malformed value would panic the process. Run calls it under Conf.Resolve
// before the simulation starts, which turns the panic into an error. The
// slot counts are also held to at least 1: mrv1 with no slots never
// schedules a task and never finishes.
func readSimKeys(conf *mapreduce.Conf) error {
	for _, key := range []string{mapreduce.ConfMapSlots, mapreduce.ConfReduceSlots} {
		if conf.GetInt(key, 1) < 1 {
			return &mapreduce.JobError{Msg: fmt.Sprintf("microbench: conf key %q = %q: want at least 1 task slot", key, conf.Get(key, ""))}
		}
	}
	for _, key := range []string{mapreduce.ConfMapMemoryMB, mapreduce.ConfReduceMemoryMB, mapreduce.ConfNodeMemoryMB, mapreduce.ConfSpillInflight} {
		conf.GetInt(key, 0)
	}
	for _, key := range []string{mapreduce.ConfCompressRatio, mapreduce.ConfShuffleMergePct, mapreduce.ConfShuffleInputBufPct} {
		conf.GetFloat(key, 0)
	}
	conf.GetBool(mapreduce.ConfSpeculative, false)
	return nil
}
