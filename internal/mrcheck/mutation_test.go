//go:build mutation

package mrcheck

// Mutation smoke tests: each deliberately breaks one piece of MapReduce
// semantics inside the real executor's job and asserts the invariant library
// catches it. They guard against a vacuous harness — a checker whose
// invariants all hold on broken jobs measures nothing. Gated behind the
// `mutation` build tag because they intentionally fail jobs:
//
//	go test -tags mutation -run TestMutationMatrix ./internal/mrcheck
//
// (A cheap always-on variant, TestMutationCaught, runs in every go-test.)

import (
	"errors"
	"testing"

	"mrmicro/internal/fuzzcorpus"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// mutantCollector wraps a map-side collector to drop or duplicate records.
type mutantCollector struct {
	inner mapreduce.Collector
	drop  bool // swallow the first record
	dup   bool // emit the first record twice
	done  bool
}

func (c *mutantCollector) Collect(k, v writable.Writable) error {
	if !c.done {
		c.done = true
		if c.drop {
			return nil
		}
		if c.dup {
			if err := c.inner.Collect(k, v); err != nil {
				return err
			}
		}
	}
	return c.inner.Collect(k, v)
}

type mutantMapper struct {
	inner     mapreduce.Mapper
	drop, dup bool
	coll      *mutantCollector
}

func (m *mutantMapper) wrap(out mapreduce.Collector) mapreduce.Collector {
	if m.coll == nil || m.coll.inner != out {
		m.coll = &mutantCollector{inner: out, drop: m.drop, dup: m.dup}
	}
	return m.coll
}

func (m *mutantMapper) Map(k, v writable.Writable, out mapreduce.Collector, rep mapreduce.Reporter) error {
	return m.inner.Map(k, v, m.wrap(out), rep)
}

func (m *mutantMapper) Close(out mapreduce.Collector, rep mapreduce.Reporter) error {
	return m.inner.Close(m.wrap(out), rep)
}

func mutateMapper(drop, dup bool) func(*mapreduce.Job) {
	return func(job *mapreduce.Job) {
		orig := job.Mapper
		job.Mapper = func() mapreduce.Mapper {
			return &mutantMapper{inner: orig(), drop: drop, dup: dup}
		}
	}
}

// TestMutationMatrix: every mutation must be caught, each by the invariant
// class that owns the semantics it breaks, on a fixed config per pattern;
// and each must be caught on the config of at least one of FuzzJob's
// committed seeds, so the fuzzer starts from inputs that can see it.
func TestMutationMatrix(t *testing.T) {
	cases := []struct {
		name          string
		mutate        func(*mapreduce.Job)
		wantInvariant string
	}{
		{"partition-flip", FlipFirstPartition, "partition-oracle/localrun"},
		{"record-drop", mutateMapper(true, false), "partition-oracle/localrun"},
		{"record-dup", mutateMapper(false, true), "partition-oracle/localrun"},
		{"order-swap", swapTaskStampsWhenSyncSpill, "spill-identity/output"},
	}
	for _, pattern := range microbench.Patterns() {
		for _, tc := range cases {
			tc := tc
			t.Run(string(pattern)+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := microbench.Config{
					Pattern:     pattern,
					NumMaps:     2,
					NumReduces:  3,
					PairsPerMap: 100,
					KeySize:     8,
					ValueSize:   8,
					Slaves:      1,
					Seed:        1,
				}
				err := CheckConfig(cfg, CheckOptions{
					Engines:   []microbench.Engine{},
					MutateJob: tc.mutate,
				})
				var fail *Failure
				if !errors.As(err, &fail) {
					t.Fatalf("mutated job passed every invariant (err=%v)", err)
				}
				if fail.Invariant != tc.wantInvariant {
					t.Logf("caught by %s (expected %s) — acceptable, but update the matrix if intentional",
						fail.Invariant, tc.wantInvariant)
				}
			})
		}
	}
	seeds, err := fuzzcorpus.Load(fuzzJobDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		t.Run("FuzzJob-seeds/"+tc.name, func(t *testing.T) {
			t.Parallel()
			caught := 0
			for _, seed := range seeds {
				var fail *Failure
				if errors.As(CheckConfig(Decode(seed, GenOptions{Faults: true}), CheckOptions{MutateJob: tc.mutate}), &fail) {
					caught++
				}
			}
			t.Logf("caught on the configs of %d of %d seeds", caught, len(seeds))
			if caught == 0 {
				t.Errorf("the %s mutant passed every invariant on the config of every committed FuzzJob seed", tc.name)
			}
		})
	}
}
