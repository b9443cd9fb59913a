// Package mrcheck is the suite's property-based differential tester: it
// generates random-but-valid benchmark configurations, runs each through the
// real executor (internal/localrun), the simulated engines (mrv1, yarn),
// and — when asked for the dist engine — the real multi-process distributed
// runtime (internal/distrun), and checks a library of cross-engine
// invariants: partition-stream oracles per pattern, counter identity,
// byte-identical reduce output against the barrier schedule, shuffle-byte
// accounting, and recovery equivalence under injected faults (including
// worker-process kills and network partitions for the distributed runtime).
// Failing configurations are shrunk greedily before being reported with a
// one-line flag-form repro (microbench.Config.Repro).
//
// The package exists because the suite is a measurement instrument: its
// numbers are only meaningful if every engine computes the same MapReduce
// semantics at every slowstart/parallel-copies/fault setting.
package mrcheck

import (
	"math/rand"

	"mrmicro/internal/microbench"
)

// GenOptions tunes the configuration generator.
type GenOptions struct {
	// MaxShuffleBytes caps a generated job's intermediate data volume so a
	// check run's cost is bounded. Zero means 512 KiB.
	MaxShuffleBytes int64

	// Faults keeps the seeded fault plans the decoder draws (on about half
	// of the configs); off, every config runs clean.
	Faults bool

	// WorkloadOnly restricts Generate's stream to real-input workload configs
	// (wordcount/grep/invindex over generated corpora, hssort over
	// materialized generator rows). Off, workloads ride along on roughly a
	// fifth of the stream.
	WorkloadOnly bool
}

func (o GenOptions) maxShuffleBytes() int64 {
	if o.MaxShuffleBytes > 0 {
		return o.MaxShuffleBytes
	}
	return 512 << 10
}

// streamLen is the number of seeded bytes Generate decodes a config from,
// more than one decode reads; past them the stream reads as zeros.
const streamLen = 1024

// Generate derives iteration i of suite seed's configuration stream: seeded
// bytes fed to Decode. The stream is pure: (seed, i, opts) always yields the
// same config, so any iteration can be replayed in isolation.
func Generate(seed int64, i int, opts GenOptions) microbench.Config {
	// Mix the iteration into the seed (splitmix64-style) so neighbouring
	// iterations draw unrelated streams.
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9B1
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	rng := rand.New(rand.NewSource(int64(z ^ (z >> 31))))
	for {
		data := make([]byte, streamLen)
		rng.Read(data)
		// A workload-only stream passes over the synthetic draws.
		if cfg := Decode(data, opts); cfg.Workload != "" || !opts.WorkloadOnly {
			return cfg
		}
	}
}

// Decode turns bytes into a check configuration: microbench's decoder walks
// the knob table (so a knob joins the generator with its row's draw), then
// a synthetic job's record count is drawn up to the byte budget, exact for
// the partition oracles and at least one record per map. FuzzJob feeds it
// the fuzzer's bytes. WorkloadOnly is Generate's to apply.
func Decode(data []byte, opts GenOptions) microbench.Config {
	d := microbench.Draws(data)
	cfg := d.Config()
	if !opts.Faults {
		cfg.Faults = nil
	}
	if cfg.Workload == "" {
		maxPairs := min(cfg.WithShuffleSize(opts.maxShuffleBytes()).PairsPerMap, microbench.MaxExactSpecDraws-1)
		cfg.PairsPerMap = 1 + d.Below(maxPairs)
	}
	return cfg
}
