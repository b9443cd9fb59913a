package microbench

import (
	"encoding/json"
	"fmt"
	"sync"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/mrsim"
	"mrmicro/internal/rdmashuffle"
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
// per-(map, reduce) record counts. It is a Sweep of one point.
func BuildSpec(cfg Config) (*mrsim.JobSpec, error) {
	return new(Sweep).Spec(cfg)
}

// Sweep is the scope in which simulated points share work: what a job
// shuffles is a function of its data shape alone (pattern, sizes, counts,
// seed, combiner, workload and input), so points of one sweep that differ
// only in the environment they are replayed on — network, cluster, engine,
// tuning knobs, fault plan, cost model — build that intermediate-data matrix
// once and read it concurrently. The zero value is ready to use and safe for
// concurrent use; figures.Runner.RunAll holds one per call, and Run and
// BuildSpec are sweeps of one point. Nothing outlives the Sweep.
type Sweep struct {
	mu       sync.Mutex
	matrices map[string]*sharedMatrix
}

// sharedMatrix is built by the first point that asks for it; the others wait.
// data is a JobSpec with only its data fields set (both matrices, the type
// factor, raw bytes, input counters) and is immutable once built: the spec
// of every point sharing it aliases its slices.
type sharedMatrix struct {
	once sync.Once
	data *mrsim.JobSpec
	err  error
}

// Spec resolves cfg into the JobSpec Run executes.
func (s *Sweep) Spec(cfg Config) (*mrsim.JobSpec, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return s.spec(cfg)
}

// spec wraps the matrix of cfg's data shape in cfg's own envelope — name, job
// conf, shuffle plugin and fault plan, all cheap. cfg is normalized.
func (s *Sweep) spec(cfg Config) (*mrsim.JobSpec, error) {
	// The matrix is built from the shape alone, so no environment-only field
	// can reach it.
	shape := cfg.dataShape()
	js, err := json.Marshal(shape)
	if err != nil {
		return nil, fmt.Errorf("microbench: data-shape key: %w", err)
	}
	key := string(js)
	s.mu.Lock()
	if s.matrices == nil {
		s.matrices = make(map[string]*sharedMatrix)
	}
	shared := s.matrices[key]
	if shared == nil {
		shared = new(sharedMatrix)
		s.matrices[key] = shared
	}
	s.mu.Unlock()
	shared.once.Do(func() { shared.data, shared.err = buildMatrix(shape) })
	if shared.err != nil {
		return nil, shared.err
	}

	spec := *shared.data
	spec.Name = cfg.Label()
	spec.Conf = cfg.HadoopConf()
	if cfg.Workload != "" {
		// Real inputs own their split geometry, not cfg.NumMaps.
		spec.Conf.SetInt(mapreduce.ConfNumMaps, len(spec.Partitions))
	}
	if cfg.RDMAShuffle {
		spec.Shuffle = rdmashuffle.Plugin{}
	}
	if cfg.Faults != nil {
		spec.Plan = *cfg.Faults
	}
	return &spec, nil
}

// dataShape returns normalized c with every environment-only field cleared:
// the knobs whose row says so, and the three fields no flag sets. What is
// left is the key points share a matrix under and the only configuration
// buildMatrix sees. Clearing is an allow-list — a field nobody classified
// stays in the key, which can cost a share but never merge two shapes.
func (c Config) dataShape() Config {
	for _, k := range Knobs {
		if k.EnvOnly {
			k.clear(&c)
		}
	}
	c.Faults, c.Model, c.MonitorInterval = nil, nil, 0
	return c
}

// buildMatrix runs the real partitioners (or, for a workload, the real
// mapper over its real splits) and tallies what each map shuffles to each
// reducer. The JobSpec it returns carries the data fields only.
func buildMatrix(cfg Config) (*mrsim.JobSpec, error) {
	if cfg.Workload != "" {
		return buildWorkloadMatrix(cfg)
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
	return &mrsim.JobSpec{
		Partitions:        parts,
		PostCombine:       postCombine,
		TypeFactor:        typeFactor,
		MapOutputRawBytes: int64(cfg.NumMaps) * cfg.PairsPerMap * int64(rawPairLen),
	}, nil
}

// tallier is the bulk form of a pattern partitioner's Partition: see
// AvgPartitioner.Tally.
type tallier interface {
	Tally(counts, distinct []int64, n int64, numReduces int)
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
	bulk, ok := part.(tallier)
	if !ok {
		return nil, nil, fmt.Errorf("microbench: partitioner %T of %s cannot tally a record stream", part, cfg.Pattern)
	}
	counts = make([]int64, cfg.NumReduces)
	if cfg.Combine {
		distinct = make([]int64, cfg.NumReduces)
	}

	draws := cfg.PairsPerMap
	scale := int64(1)
	if draws > maxExactDraws && cfg.Pattern != MRSkew {
		// Sample the stream deterministically and scale. (MR-SKEW's prefix
		// thresholds are position-dependent, so it is always run exactly —
		// its random region is only ~1/3 of the stream.)
		scale = (draws + maxExactDraws - 1) / maxExactDraws
		draws = draws / scale
	}
	bulk.Tally(counts, distinct, draws, cfg.NumReduces)
	// Every draw lands on exactly one reducer.
	var tallied int64
	for _, n := range counts {
		tallied += n
	}
	if tallied != draws {
		return nil, nil, fmt.Errorf("microbench: partitioner %s placed %d of %d draws on %d reduces", cfg.Pattern, tallied, draws, cfg.NumReduces)
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
