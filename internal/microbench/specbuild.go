package microbench

import (
	"fmt"

	"mrmicro/internal/mrsim"
)

// maxExactDraws bounds per-map partitioner simulation: below it the
// intermediate-data matrix is exact; above it a deterministic sample of the
// partitioner's stream is scaled up (error < 0.1 % at the sample size, far
// below run-to-run variance on real clusters).
const maxExactDraws = 1 << 22

// MaxExactSpecDraws is the per-map pair count up to which BuildSpec's
// intermediate-data matrix is draw-exact rather than sampled. Differential
// checks that compare the sim's matrix against independent oracles
// (internal/mrcheck) must generate below this bound.
const MaxExactSpecDraws = maxExactDraws

// BuildSpec resolves a benchmark configuration into the simulated engines'
// JobSpec by running the *real* partitioner implementations over each map
// task's record stream — the same code localrun executes — and tallying the
// per-(map, reduce) record counts.
func BuildSpec(cfg Config) (*mrsim.JobSpec, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Workload != "" {
		return buildWorkloadSpec(cfg)
	}
	pairLen, err := SerializedPairLen(cfg.DataType, cfg.KeySize, cfg.ValueSize)
	if err != nil {
		return nil, err
	}
	rawPairLen, err := RawPairLen(cfg.DataType, cfg.KeySize, cfg.ValueSize)
	if err != nil {
		return nil, err
	}

	parts := make([][]mrsim.SegSpec, cfg.NumMaps)
	var postCombine [][]mrsim.SegSpec
	if cfg.Combine {
		postCombine = make([][]mrsim.SegSpec, cfg.NumMaps)
	}
	for m := 0; m < cfg.NumMaps; m++ {
		counts, distinct, err := partitionCounts(cfg, m)
		if err != nil {
			return nil, err
		}
		row := make([]mrsim.SegSpec, cfg.NumReduces)
		for r, n := range counts {
			row[r] = mrsim.SegSpec{Records: n, Bytes: n * int64(pairLen)}
		}
		parts[m] = row
		if cfg.Combine {
			crow := make([]mrsim.SegSpec, cfg.NumReduces)
			for r, n := range distinct {
				crow[r] = mrsim.SegSpec{Records: n, Bytes: n * int64(pairLen)}
			}
			postCombine[m] = crow
		}
	}

	typeFactor := 1.0
	if cfg.DataType == "Text" {
		// Text pays UTF-8 validation, vint decode and char-level handling
		// on every record touch.
		typeFactor = 1.18
	}

	spec := &mrsim.JobSpec{
		Name:              cfg.Label(),
		Conf:              cfg.HadoopConf(),
		Partitions:        parts,
		PostCombine:       postCombine,
		TypeFactor:        typeFactor,
		MapOutputRawBytes: int64(cfg.NumMaps) * cfg.PairsPerMap * int64(rawPairLen),
	}
	if cfg.Faults != nil {
		spec.Plan = *cfg.Faults
	}
	return spec, nil
}

// partitionCounts tallies map m's per-reducer record counts using the real
// partitioner. distinct[r] is the number of distinct key indices landing in
// partition r — the record count the map-side combiner collapses the
// partition to, since GenMapper's key for draw i is i % NumReduces and the
// combiner keeps exactly one record per key group.
func partitionCounts(cfg Config, mapIdx int) (counts, distinct []int64, err error) {
	part, err := NewPartitioner(cfg.Pattern, cfg.PairsPerMap, cfg.Seed+int64(mapIdx)*7919)
	if err != nil {
		return nil, nil, err
	}
	counts = make([]int64, cfg.NumReduces)

	draws := cfg.PairsPerMap
	scale := int64(1)
	if draws > maxExactDraws && cfg.Pattern != MRSkew {
		// Sample the stream deterministically and scale. (MR-SKEW's prefix
		// thresholds are position-dependent, so it is always run exactly —
		// its random region is only ~1/3 of the stream.)
		scale = (draws + maxExactDraws - 1) / maxExactDraws
		draws = draws / scale
	}
	uniq := cfg.NumReduces
	if uniq < 1 {
		uniq = 1
	}
	var seen [][]bool
	if cfg.Combine {
		distinct = make([]int64, cfg.NumReduces)
		seen = make([][]bool, cfg.NumReduces)
		for r := range seen {
			seen[r] = make([]bool, uniq)
		}
	}
	for i := int64(0); i < draws; i++ {
		p := part.Partition(nil, nil, cfg.NumReduces)
		if p < 0 || p >= cfg.NumReduces {
			return nil, nil, fmt.Errorf("microbench: partitioner %s returned %d for %d reduces", cfg.Pattern, p, cfg.NumReduces)
		}
		counts[p]++
		if seen != nil {
			if k := int(i % int64(uniq)); !seen[p][k] {
				seen[p][k] = true
				distinct[p]++
			}
		}
	}
	if scale > 1 {
		var total int64
		for r := range counts {
			counts[r] *= scale
			total += counts[r]
		}
		// Preserve the exact pair count: park the rounding remainder on the
		// emptiest reducer deterministically.
		if rem := cfg.PairsPerMap - total; rem != 0 {
			min := 0
			for r := range counts {
				if counts[r] < counts[min] {
					min = r
				}
			}
			counts[min] += rem
		}
	}
	return counts, distinct, nil
}
