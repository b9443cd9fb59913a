package mrcheck

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/javarand"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrsim"
	"mrmicro/internal/writable"
	"mrmicro/internal/xxh64"
)

// Failure is one invariant violation: the config that triggered it (shrunk
// by the caller before reporting), the invariant's machine name, and detail.
type Failure struct {
	Config    microbench.Config
	Invariant string
	Detail    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("mrcheck: invariant %s violated: %s", f.Invariant, f.Detail)
}

// SkipError marks a run that cannot be checked rather than a wrong one: the
// generated fault plan legally exhausted its attempt bounds, which is the
// recovery machinery working as specified.
type SkipError struct{ Err error }

func (s *SkipError) Error() string { return fmt.Sprintf("mrcheck: skipped: %v", s.Err) }
func (s *SkipError) Unwrap() error { return s.Err }

// CheckOptions tunes one invariant check.
type CheckOptions struct {
	// Engines lists the simulated engines to differentially test against the
	// real executor. Nil checks both mrv1 and yarn; an empty non-nil slice
	// checks only the real executor's own invariants.
	Engines []microbench.Engine

	// MutateJob, when non-nil, is applied to every localrun job before it
	// runs. It exists for the harness's self-test: injecting a deliberate
	// semantic mutation (e.g. flipping a partitioner decision) must make
	// CheckConfig fail — a harness that passes mutated jobs is vacuous.
	MutateJob func(*mapreduce.Job)
}

func (o CheckOptions) engines() []microbench.Engine {
	if o.Engines != nil {
		return o.Engines
	}
	return []microbench.Engine{microbench.EngineMRv1, microbench.EngineYARN}
}

// segOverhead is the fixed per-segment wire framing localrun's shuffle
// counts beyond the records themselves (IFile EOF marker + checksum),
// measured from an empty segment rather than hard-coded.
var segOverhead = int64(func() int {
	seg := kvbuf.NewWriter(8).Close()
	defer seg.Recycle()
	return seg.Len()
}())

// fastBackoff keeps injected-fault retries at memory speed during checks.
var fastBackoff = faultinject.Backoff{Base: 50 * time.Microsecond, Max: time.Millisecond}

// CheckConfig runs every invariant over one configuration. It returns nil
// when all hold, a *Failure for a violation, a *SkipError when the config's
// fault plan legally exhausted its retry budget, and a plain error for
// infrastructure problems.
func CheckConfig(cfg microbench.Config, opts CheckOptions) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return fmt.Errorf("mrcheck: config does not normalize: %w", err)
	}
	if cfg.Workload != "" {
		return checkWorkload(cfg, opts)
	}
	if cfg.PairsPerMap >= microbench.MaxExactSpecDraws {
		return fmt.Errorf("mrcheck: PairsPerMap %d at or above the exact-spec bound %d; oracles would be sampled",
			cfg.PairsPerMap, microbench.MaxExactSpecDraws)
	}

	oracle, oracleDistinct := oracleMatrix(cfg)
	total := cfg.PairsPerMap * int64(cfg.NumMaps)
	pairLen, err := microbench.SerializedPairLen(cfg.DataType, cfg.KeySize, cfg.ValueSize)
	if err != nil {
		return err
	}
	rawPairLen, err := microbench.RawPairLen(cfg.DataType, cfg.KeySize, cfg.ValueSize)
	if err != nil {
		return err
	}
	specBytes := total * int64(pairLen)
	segments := int64(cfg.NumMaps) * int64(cfg.NumReduces)

	// Invariant: the resolved JobSpec's intermediate-data matrix equals the
	// independent per-pattern oracle, record- and byte-exactly.
	spec, err := microbench.BuildSpec(cfg)
	if err != nil {
		return err
	}
	for m := range oracle {
		for r, want := range oracle[m] {
			seg := spec.Partitions[m][r]
			if seg.Records != want {
				return &Failure{cfg, "partition-oracle/spec", fmt.Sprintf(
					"map %d -> reduce %d: spec has %d records, %s oracle says %d", m, r, seg.Records, cfg.Pattern, want)}
			}
			if seg.Bytes != want*int64(pairLen) {
				return &Failure{cfg, "spec-bytes", fmt.Sprintf(
					"map %d -> reduce %d: %d bytes for %d records of %dB", m, r, seg.Bytes, want, pairLen)}
			}
		}
	}

	// Invariant: with a combiner, the spec's post-combine matrix equals the
	// independent distinct-key oracle. What the reducers actually receive is
	// derived from it below.
	postTotal := total
	specShuffleBytes := specBytes
	perReduceWant := make([]int64, cfg.NumReduces)
	for r := 0; r < cfg.NumReduces; r++ {
		for m := range oracle {
			perReduceWant[r] += oracle[m][r]
		}
	}
	if cfg.Combine {
		if spec.PostCombine == nil {
			return &Failure{cfg, "combine-spec", "Combine is set but BuildSpec produced no PostCombine matrix"}
		}
		postTotal, specShuffleBytes = 0, 0
		for r := range perReduceWant {
			perReduceWant[r] = 0
		}
		for m := range oracleDistinct {
			for r, want := range oracleDistinct[m] {
				seg := spec.PostCombine[m][r]
				if seg.Records != want {
					return &Failure{cfg, "combine-oracle/spec", fmt.Sprintf(
						"map %d -> reduce %d: post-combine spec has %d records, distinct-key oracle says %d", m, r, seg.Records, want)}
				}
				if seg.Bytes != want*int64(pairLen) {
					return &Failure{cfg, "combine-spec-bytes", fmt.Sprintf(
						"map %d -> reduce %d: %d post-combine bytes for %d records of %dB", m, r, seg.Bytes, want, pairLen)}
				}
				postTotal += want
				specShuffleBytes += seg.Bytes
				perReduceWant[r] += want
			}
		}
	} else if spec.PostCombine != nil {
		return &Failure{cfg, "combine-spec", "Combine is off but BuildSpec produced a PostCombine matrix"}
	}

	// Real executor, clean (faults stripped): the reference run.
	clean, err := runLocal(cfg, false, opts.MutateJob)
	if err != nil {
		return err
	}
	for r := 0; r < cfg.NumReduces; r++ {
		if got, want := clean.perReduce[r], perReduceWant[r]; got != want {
			return &Failure{cfg, "partition-oracle/localrun", fmt.Sprintf(
				"reduce %d received %d records, %s oracle says %d", r, got, cfg.Pattern, want)}
		}
	}
	counterChecks := []struct {
		name string
		ctr  string
		want int64
	}{
		{"counter/map-output-records", mapreduce.CtrMapOutputRecords, total},
		{"counter/reduce-input-records", mapreduce.CtrReduceInputRecords, postTotal},
		{"counter/map-output-bytes", mapreduce.CtrMapOutputBytes, total * int64(rawPairLen)},
		{"counter/shuffled-maps", mapreduce.CtrShuffledMaps, segments},
	}
	if cfg.Codec == "" {
		// With a codec the wire carries compressed payloads whose size the
		// byte formula cannot predict; the codec-identity twin below pins the
		// semantics instead.
		counterChecks = append(counterChecks, struct {
			name string
			ctr  string
			want int64
		}{"counter/shuffle-bytes", mapreduce.CtrReduceShuffleBytes, specShuffleBytes + segments*segOverhead})
	}
	for _, iv := range counterChecks {
		if got := clean.counters.Task(iv.ctr); got != iv.want {
			return &Failure{cfg, iv.name, fmt.Sprintf("localrun %s=%d, want %d", iv.ctr, got, iv.want)}
		}
	}

	// Invariant: the twin knobs may move time or wire bytes, never results —
	// for each one not already at its reference setting, a twin run at the
	// reference must produce a byte-identical output digest and the same
	// counters, minus the ones the knob is a license to change. At a bounded
	// shuffle budget SPILLED_RECORDS joins that list for every twin: how many
	// reduce-side records spill depends on fetch/merge interleaving.
	bounded := cfg.ShuffleMemBudget > 0
	for _, tw := range twins {
		k := microbench.KnobByName(tw.knob)
		if k.Get(&cfg) == tw.reference {
			continue
		}
		tcfg := cfg
		if err := k.Set(&tcfg, tw.reference); err != nil {
			return err
		}
		ref, err := runLocal(tcfg, false, opts.MutateJob)
		if err != nil {
			return err
		}
		if ref.digest != clean.digest {
			return &Failure{cfg, tw.name + "-identity/output", fmt.Sprintf(
				"reduce output at -%s %q is not byte-identical to the -%s %q twin", k.Name, k.Get(&cfg), k.Name, tw.reference)}
		}
		except := tw.except
		if bounded {
			except = append(slices.Clip(except), mapreduce.CtrSpilledRecords)
		}
		if got, want := identityCounters(clean.counters, except), identityCounters(ref.counters, except); got != want {
			return &Failure{cfg, tw.name + "-identity/counters", fmt.Sprintf(
				"counters differ between -%s %q and %q (%v excluded):\n%s\ntwin:\n%s", k.Name, k.Get(&cfg), tw.reference, except, got, want)}
		}
	}

	// Invariant: the first-value combiner only collapses multiplicity — a
	// combiner-off twin seen through a multiplicity-insensitive reducer
	// (distinct values per key group) must produce a byte-identical digest,
	// and the map side must be untouched.
	if cfg.Combine {
		combined, err := runLocalWith(cfg, false, opts.MutateJob, distinctReducer)
		if err != nil {
			return err
		}
		ncfg := cfg
		ncfg.Combine = false
		uncombined, err := runLocalWith(ncfg, false, opts.MutateJob, distinctReducer)
		if err != nil {
			return err
		}
		if combined.digest != uncombined.digest {
			return &Failure{cfg, "combine-identity/output", "distinct-value reduce output differs between combiner on and off"}
		}
		for _, ctr := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrMapOutputBytes} {
			if got, want := combined.counters.Task(ctr), uncombined.counters.Task(ctr); got != want {
				return &Failure{cfg, "combine-identity/counters", fmt.Sprintf(
					"task counter %s=%d with combiner, %d without — combining must not change map output accounting", ctr, got, want)}
			}
		}
	}

	// Invariant: recovery equivalence — the same job under its injected fault
	// plan must produce the clean run's output and task counters exactly.
	wantDist := cfg.Engine == microbench.EngineDist || hasEngine(opts.engines(), microbench.EngineDist)
	if cfg.Faults != nil {
		faulted, err := runLocal(cfg, true, opts.MutateJob)
		if errors.Is(err, faultinject.ErrInjected) {
			// Nothing to compare, but the plan must end the dist job too:
			// it still runs, under checkDist's deadline.
			if wantDist {
				if err := checkDist(cfg); err != nil {
					return err
				}
			}
			return &SkipError{err}
		}
		if err != nil {
			return err
		}
		if faulted.digest != clean.digest {
			return &Failure{cfg, "recovery/output", "reduce output under injected faults differs from the clean run"}
		}
		for _, ctr := range taskIdentityCounters {
			if got, want := faulted.counters.Task(ctr), clean.counters.Task(ctr); got != want {
				return &Failure{cfg, "recovery/counters", fmt.Sprintf(
					"task counter %s=%d under faults, %d clean", ctr, got, want)}
			}
		}
	}

	// Invariant: distributed recovery equivalence — the real multi-process
	// runtime (worker processes over hadooprpc, localrun's TCP shuffle as the
	// data plane), under the same fault plan including process-level worker
	// kills and partitions, must reproduce the single-process oracle's output
	// digests, record counts, and task counters exactly. Runs when the config
	// itself pins the dist engine (as distributed corpus repros do) or when
	// the caller asked for it in Engines.
	if wantDist {
		if err := checkDist(cfg); err != nil {
			return err
		}
	}

	// Simulated engines: counter identity with the real executor, clean and
	// under the same fault plan. The sim's wire bytes are exactly predictable
	// from the (post-combine) matrix and the modelled compression ratio, so
	// they are checked to the byte even with codec and combiner on.
	simWire := simWireBytes(cfg, spec)
	for _, engine := range opts.engines() {
		if engine == microbench.EngineDist {
			continue // the real runtime, checked by checkDist above
		}
		ecfg := cfg
		ecfg.Engine = engine
		ecfg.Faults = nil
		res, err := microbench.Run(ecfg)
		if err != nil {
			return err
		}
		c := res.Report.Counters
		for _, iv := range []struct {
			name string
			ctr  string
			want int64
		}{
			{"cross-engine/map-output-records", mapreduce.CtrMapOutputRecords, total},
			{"cross-engine/reduce-input-records", mapreduce.CtrReduceInputRecords, postTotal},
			{"cross-engine/map-output-bytes", mapreduce.CtrMapOutputBytes, clean.counters.Task(mapreduce.CtrMapOutputBytes)},
			{"cross-engine/shuffled-maps", mapreduce.CtrShuffledMaps, segments},
			{"cross-engine/shuffle-bytes", mapreduce.CtrReduceShuffleBytes, simWire},
		} {
			if got := c.Task(iv.ctr); got != iv.want {
				return &Failure{cfg, iv.name, fmt.Sprintf("%s %s=%d, want %d", engine, iv.ctr, got, iv.want)}
			}
		}
		if res.ShuffleBytes != simWire {
			return &Failure{cfg, "cross-engine/shuffle-bytes", fmt.Sprintf(
				"%s moved %d shuffle bytes, spec says %d", engine, res.ShuffleBytes, simWire)}
		}

		if cfg.Faults != nil {
			fcfg := cfg
			fcfg.Engine = engine
			fres, err := microbench.Run(fcfg)
			if err != nil {
				return err
			}
			fc := fres.Report.Counters
			for _, ctr := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrMapOutputBytes,
				mapreduce.CtrReduceInputRecords, mapreduce.CtrShuffledMaps} {
				if got, want := fc.Task(ctr), c.Task(ctr); got != want {
					return &Failure{cfg, "recovery/sim-counters", fmt.Sprintf(
						"%s task counter %s=%d under faults, %d clean", engine, ctr, got, want)}
				}
			}
			// Refetches may re-move bytes, never lose them.
			if got := fc.Task(mapreduce.CtrReduceShuffleBytes); got < simWire {
				return &Failure{cfg, "recovery/sim-shuffle-bytes", fmt.Sprintf(
					"%s moved %d shuffle bytes under faults, below the spec's %d", engine, got, simWire)}
			}
		}
	}
	return nil
}

// simWireBytes predicts the simulated engines' REDUCE_SHUFFLE_BYTES for a
// clean run: per shuffled segment, the post-combine bytes scaled by the
// modelled compression ratio (mirroring JobState.WireFactor), truncated per
// segment exactly as the stock fetch path truncates. The eager RDMA shuffle
// moves raw (uncompressed-model) bytes.
func simWireBytes(cfg microbench.Config, spec *mrsim.JobSpec) int64 {
	wf := 1.0
	if !cfg.RDMAShuffle && spec.Conf.GetBool(mapreduce.ConfCompressMapOut, false) {
		r := spec.Conf.GetFloat(mapreduce.ConfCompressRatio, 0.5)
		if r <= 0 || r > 1 {
			r = 0.5
		}
		wf = r
	}
	var wire int64
	for m := 0; m < spec.NumMaps(); m++ {
		for r := 0; r < spec.NumReduces(); r++ {
			if b := spec.ShuffleSeg(m, r).Bytes; b > 0 {
				wire += int64(float64(b) * wf)
			}
		}
	}
	return wire
}

// distDeadline bounds one dist run in mrcheck. Every job must end — match
// the oracle or fail with a typed error — and the ones mrcheck draws and
// pins take seconds.
const distDeadline = time.Minute

// checkDist runs cfg on the real distributed runtime and holds it to
// distrun's single-process oracle: per-reduce output digests, input record
// counts, and the task counter group must match exactly, faults or not.
// A job that legally exhausts a task's attempt budget under the plan
// (localrun.ErrAttemptsExhausted) is a Skip, like localrun's ErrInjected; a
// job with no verdict by distDeadline is a dist/liveness Failure, its
// coordinator killed and its workers closed. MutateJob does not cross the
// process boundary, so this invariant always checks the unmutated job; the
// calling binary must run distrun.MaybeWorker at startup (cmd/mrcheck and
// this package's TestMain both do) so spawned workers can bootstrap.
func checkDist(cfg microbench.Config) error {
	want, err := distrun.LocalOracle(cfg)
	if err != nil {
		return err
	}
	dcfg := cfg
	dcfg.Engine = microbench.EngineDist
	ctx, cancel := context.WithTimeout(context.Background(), distDeadline)
	defer cancel()
	res, err := distrun.RunContext(ctx, dcfg, &distrun.Options{Workers: 2, Respawn: true, Digest: true})
	if errors.Is(err, context.DeadlineExceeded) {
		return &Failure{cfg, "dist/liveness", fmt.Sprintf("no verdict within %v: the job neither finished nor failed", distDeadline)}
	}
	if err != nil {
		if errors.Is(err, localrun.ErrAttemptsExhausted) {
			return &SkipError{err}
		}
		return err
	}
	if res.JobDigest != want.JobDigest {
		return &Failure{cfg, "dist/output", fmt.Sprintf(
			"distributed job digest %016x, single-process oracle %016x", res.JobDigest, want.JobDigest)}
	}
	for r := 0; r < cfg.NumReduces; r++ {
		if res.PerReduceDigests[r] != want.PerReduceDigests[r] {
			return &Failure{cfg, "dist/output", fmt.Sprintf(
				"reduce %d digest %016x, oracle %016x", r, res.PerReduceDigests[r], want.PerReduceDigests[r])}
		}
		if res.PerReduceRecords[r] != want.PerReduceRecords[r] {
			return &Failure{cfg, "dist/records", fmt.Sprintf(
				"reduce %d consumed %d records, oracle says %d", r, res.PerReduceRecords[r], want.PerReduceRecords[r])}
		}
	}
	for _, ctr := range taskIdentityCounters {
		if got, w := res.Counters.Task(ctr), want.Counters.Task(ctr); got != w {
			return &Failure{cfg, "dist/counters", fmt.Sprintf(
				"task counter %s=%d distributed, %d single-process", ctr, got, w)}
		}
	}
	return nil
}

// twins are the knobs mrcheck holds to result identity (see CheckConfig):
// each names its invariant, the flag in microbench.Knobs, the reference
// setting the twin run uses, and the counters the knob may legally change.
var twins = []struct {
	name, knob, reference string
	except                []string
}{
	// A codec changes only what crosses the wire.
	{"codec", "codec", "", []string{mapreduce.CtrReduceShuffleBytes}},
	// The overlapped schedule against the strict barrier.
	{"barrier", "slowstart", "1", nil},
	// The bounded segment pool and its disk passes against the pure
	// in-memory final merge.
	{"bounded", "shufflemem", "0", nil},
	// The background SpillThread against inline spilling. Spill boundaries
	// are a pure function of the record stream and the conf (every ring
	// buffer has the full io.sort.mb capacity under the same ShouldSpill
	// trigger), so even SPILLED_RECORDS must match.
	{"spill", "syncspill", "true", nil},
}

// identityCounters renders a counter set for string-identity comparison,
// with the lines of the excepted counters dropped.
func identityCounters(c *mapreduce.Counters, except []string) string {
	lines := strings.Split(c.String(), "\n")
	keep := lines[:0]
	for _, line := range lines {
		if !slices.ContainsFunc(except, func(ctr string) bool { return strings.Contains(line, ctr) }) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func hasEngine(engines []microbench.Engine, e microbench.Engine) bool {
	for _, x := range engines {
		if x == e {
			return true
		}
	}
	return false
}

// taskIdentityCounters are the task counters that must be unchanged by fault
// recovery: only winning attempts merge, so injected failures may only show
// up in the fault counter group.
var taskIdentityCounters = []string{
	mapreduce.CtrMapOutputRecords,
	mapreduce.CtrMapOutputBytes,
	mapreduce.CtrReduceInputRecords,
	mapreduce.CtrReduceOutputRecords,
	mapreduce.CtrShuffledMaps,
	mapreduce.CtrReduceShuffleBytes,
}

// oracleMatrix computes the expected per-(map, reduce) record counts from
// the pattern definitions alone — round-robin arithmetic for MR-AVG, a
// replayed java.util.Random stream for MR-RAND, prefix thresholds plus a
// replayed random tail for MR-SKEW — independent of the partitioner
// implementations under test. distinct[m][r] is the number of distinct key
// indices (GenMapper's key for draw i is i mod NumReduces) among the draws
// landing in (m, r): the record count the first-value combiner collapses
// that segment to.
func oracleMatrix(cfg microbench.Config) (out, distinct [][]int64) {
	out = make([][]int64, cfg.NumMaps)
	distinct = make([][]int64, cfg.NumMaps)
	p, rr := cfg.PairsPerMap, int64(cfg.NumReduces)
	for m := range out {
		counts := make([]int64, cfg.NumReduces)
		dist := make([]int64, cfg.NumReduces)
		seen := make([][]bool, cfg.NumReduces)
		for r := range seen {
			seen[r] = make([]bool, cfg.NumReduces)
		}
		tally := func(i int64, r int32) {
			counts[r]++
			if k := int(i % rr); !seen[r][k] {
				seen[r][k] = true
				dist[r]++
			}
		}
		seed := cfg.Seed + int64(m)*7919 // the per-map seed both builders use
		switch cfg.Pattern {
		case microbench.MRAvg:
			// Round-robin: draw i lands on reducer i mod rr, which is also
			// its key index — each non-empty segment holds exactly one key.
			for r := range counts {
				counts[r] = p / rr
				if int64(r) < p%rr {
					counts[r]++
				}
				if counts[r] > 0 {
					dist[r] = 1
				}
			}
		case microbench.MRRand:
			rng := javarand.New(seed)
			for i := int64(0); i < p; i++ {
				tally(i, rng.NextIntn(int32(rr)))
			}
		case microbench.MRSkew:
			n0 := p / 2
			n1 := (p - n0) / 4
			n2 := (p - n0 - n1) / 8
			t0, t1, t2 := n0, n0+n1, n0+n1+n2
			rng := javarand.New(seed)
			for i := int64(0); i < p; i++ {
				switch {
				case i < t0:
					tally(i, 0)
				case i < t1 && rr > 1:
					tally(i, 1)
				case i < t2 && rr > 2:
					tally(i, 2)
				default:
					tally(i, rng.NextIntn(int32(rr)))
				}
			}
		}
		out[m] = counts
		distinct[m] = dist
	}
	return out, distinct
}

// localSummary is one real execution reduced to what invariants compare.
type localSummary struct {
	perReduce []int64
	counters  *mapreduce.Counters
	digest    string // sha256 over the captured reduce output
}

// runLocal executes cfg on the real executor with the output captured and
// the order witness on: every map output value carries its (task, serial)
// stamp, and the discard reducer is replaced by one that emits, per key
// group, a value folding the group's record count with a hash of the value
// payloads in arrival order — so dropped, duplicated, truncated, corrupted
// or reordered records all surface in the digest, at any schedule.
func runLocal(cfg microbench.Config, withFaults bool, mutate func(*mapreduce.Job)) (*localSummary, error) {
	return runLocalWith(cfg, withFaults, func(job *mapreduce.Job) {
		stampOrder(job)
		if mutate != nil {
			mutate(job)
		}
	}, checkReducer)
}

// stampOrder is the identity twins' order witness, a mutate hook. GenMapper
// emits one filler value, so without it every merge order yields the same
// bytes and "byte-identical" cannot fail; with it the values of a key group
// are all distinct and their order reaches checkReducer. The partitioner is
// the one per-task seam a Job has, and it sees each value just before the
// collector serialises it, so that is where the stamp goes.
func stampOrder(job *mapreduce.Job) {
	orig := job.PartitionerForTask
	job.PartitionerForTask = func(task int) mapreduce.Partitioner {
		inner := orig(task)
		var serial uint64
		return mapreduce.PartitionerFunc(func(k, v writable.Writable, nr int) int {
			stampValue(v, task, serial)
			serial++
			return inner.Partition(k, v, nr)
		})
	}
}

// stampValue overwrites v's payload with base-36 digits of (serial, task):
// the length is unchanged, so spill boundaries and byte counters do not
// move, and the digits are printable, so a Text stays valid.
func stampValue(v writable.Writable, task int, serial uint64) {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	x := serial<<10 | uint64(task)
	data := writableBytes(v)
	for i := range data {
		data[i] = digits[x%36]
		x /= 36
	}
}

// runLocalWith runs cfg with the given mutation and digest reducer (the
// combine identity twin needs unstamped values and a multiplicity-insensitive
// fold).
func runLocalWith(cfg microbench.Config, withFaults bool, mutate func(*mapreduce.Job), reducer func() mapreduce.Reducer) (*localSummary, error) {
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		return nil, err
	}
	out := &mapreduce.MemoryOutput{}
	job.Output = out
	job.Reducer = func() mapreduce.Reducer { return reducer() }
	if mutate != nil {
		mutate(job)
	}
	lopts := &localrun.Options{FetchBackoff: fastBackoff}
	if withFaults {
		lopts.Faults = cfg.Faults
	}
	res, err := localrun.Run(job, lopts)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for r := 0; r < cfg.NumReduces; r++ {
		binary.Write(h, binary.BigEndian, int64(r))
		for _, pair := range out.Pairs(r) {
			kb := writableBytes(pair.Key)
			binary.Write(h, binary.BigEndian, int64(len(kb)))
			h.Write(kb)
			binary.Write(h, binary.BigEndian, pair.Value.(*writable.LongWritable).Value)
		}
	}
	return &localSummary{
		perReduce: res.PerReduceRecords,
		counters:  res.Counters,
		digest:    fmt.Sprintf("%x", h.Sum(nil)),
	}, nil
}

// checkReducer counts each group's records and folds every value payload
// into a hash in arrival order, emitting the mix as the group's output.
func checkReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
		var count, fold uint64
		for {
			v, ok := vs.Next()
			if !ok {
				break
			}
			fold = fold*0x100000001b3 + xxh64.Sum64(writableBytes(v)) // not commutative: a reordered group changes the digest
			count++
		}
		key := &writable.BytesWritable{Data: append([]byte(nil), writableBytes(k)...)}
		return o.Collect(key, &writable.LongWritable{Value: int64(fold + count*0x9E3779B97F4A7C15)})
	})
}

// distinctReducer hashes the set of distinct value payloads per key group —
// insensitive to how many copies of a value arrive and in what order, which
// is exactly what a lossless combiner is allowed to change.
func distinctReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(k writable.Writable, vs mapreduce.ValueIterator, o mapreduce.Collector, _ mapreduce.Reporter) error {
		var fold uint64
		seen := make(map[uint64]struct{})
		for {
			v, ok := vs.Next()
			if !ok {
				break
			}
			h := xxh64.Sum64(writableBytes(v))
			if _, dup := seen[h]; !dup {
				seen[h] = struct{}{}
				fold += h
			}
		}
		key := &writable.BytesWritable{Data: append([]byte(nil), writableBytes(k)...)}
		return o.Collect(key, &writable.LongWritable{Value: int64(fold)})
	})
}

// writableBytes extracts a writable's payload for hashing.
func writableBytes(w writable.Writable) []byte {
	switch v := w.(type) {
	case *writable.BytesWritable:
		return v.Data
	case *writable.Text:
		return v.Data
	default:
		return []byte(fmt.Sprintf("%v", w))
	}
}
