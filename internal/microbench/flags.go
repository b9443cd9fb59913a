package microbench

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"mrmicro/internal/cliutil"
	"mrmicro/internal/faultinject"
)

// BindFlags registers the shared benchmark flags on fs — one per row of
// Knobs plus the three that are not knobs: -kv and -size are shorthands
// resolved against other flags, -conf collects raw overrides. Every tool
// that runs micro-benchmarks (mrbench, mrcoord, mrcheck) so parses the exact
// same vocabulary, and Config.ReproFlags emits it, which is what makes a
// printed failure reproducible by pasting one line back into a CLI. Call the
// returned function after fs.Parse for the configuration the flags spell.
func BindFlags(fs *flag.FlagSet) func() (Config, error) {
	for _, k := range Knobs {
		k.bind(fs)
	}
	kv := fs.Int("kv", 1024, "key and value payload size in bytes")
	size := fs.String("size", "", "total shuffle data size (e.g. 16GB); overrides -pairs")
	var conf cliutil.KVFlag
	fs.Var(&conf, "conf", "raw Hadoop conf override key=value (repeatable, e.g. -conf mapreduce.task.io.sort.mb=1)")

	return func() (Config, error) {
		// Each knob's flag value, set or default, goes through its row's
		// parser — the same one a -conf override of the knob's key meets.
		cfg := Config{ExtraConf: conf.Map(), Faults: &faultinject.Plan{}}
		for _, k := range Knobs {
			if err := k.set(&cfg, fs.Lookup(k.Name).Value.String()); err != nil {
				return cfg, fmt.Errorf("-%s: %w", k.Name, err)
			}
		}
		if cfg.KeySize <= 0 {
			cfg.KeySize = *kv
		}
		if cfg.ValueSize <= 0 {
			cfg.ValueSize = *kv
		}
		cfg.settlePlan()
		if *size != "" {
			n, err := cliutil.ParseSize(*size)
			if err != nil {
				return cfg, fmt.Errorf("-size: %w", err)
			}
			cfg = cfg.WithShuffleSize(n)
		}
		return cfg, nil
	}
}

// settlePlan keeps the fault plan only when some rate asks for faults, and
// falls its seed back to the benchmark seed.
func (c *Config) settlePlan() {
	if !c.Faults.Enabled() {
		c.Faults = nil
	} else if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
}

// ParseRepro parses a flag-form argument vector (the output of ReproFlags)
// back into the configuration it encodes. A malformed vector is reported in
// the error alone: no usage text is printed.
func ParseRepro(args []string) (Config, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	config := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if fs.NArg() > 0 {
		return Config{}, fmt.Errorf("unexpected non-flag arguments %q", fs.Args())
	}
	return config()
}

// ReproFlags encodes the configuration as the argument vector BindFlags
// parses, with every default spelled out, so
// ParseRepro(cfg.ReproFlags()).Normalize() == cfg.Normalize(). Fields with
// no flag form are not representable: per-task forced failure counts
// (Plan.MapFailures/ReduceFailures), forced process-fault schedules
// (Plan.WorkerKills/Partitions), a custom cost Model, and MonitorInterval
// are all omitted.
func (c Config) ReproFlags() []string {
	if n, err := c.Normalize(); err == nil {
		c = n
	}
	var args []string
	for _, k := range Knobs {
		switch {
		case !k.spelled(&c):
		case k.boolean:
			args = append(args, "-"+k.Name)
		default:
			args = append(args, "-"+k.Name, k.Get(&c))
		}
	}
	for _, key := range slices.Sorted(maps.Keys(c.ExtraConf)) {
		args = append(args, "-conf", key+"="+c.ExtraConf[key])
	}
	return args
}

// Repro renders ReproFlags as one shell-pasteable line.
func (c Config) Repro() string {
	args := c.ReproFlags()
	quoted := make([]string, len(args))
	for i, a := range args {
		quoted[i] = shellQuote(a)
	}
	return strings.Join(quoted, " ")
}

// formatFloat renders a float with round-trip precision.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// shellQuote single-quotes an argument when it contains characters a shell
// would interpret (the network profile names contain parentheses).
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	plain := true
	for _, r := range s {
		if !(r == '-' || r == '.' || r == '_' || r == '=' || r == '/' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')) {
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
