package localrun

import (
	"fmt"
	"strings"
	"testing"

	"mrmicro/internal/mapreduce"
)

// outputFingerprint renders every reduce partition's pairs in order, so two
// runs can be compared for byte-identical reduce output.
func outputFingerprint(out *mapreduce.MemoryOutput, reduces int) string {
	var b strings.Builder
	for r := 0; r < reduces; r++ {
		fmt.Fprintf(&b, "partition %d\n", r)
		for _, p := range out.Pairs(r) {
			fmt.Fprintf(&b, "  %v\t%v\n", p.Key, p.Value)
		}
	}
	return b.String()
}

// spillHeavyConf forces the deep multi-spill path: a ~2 KiB spill trigger
// against tens of KiB of map output per map, with merge fan-in 2 so the
// background premerge combines trailing spill runs while the mapper is still
// collecting.
func spillHeavyConf(c *mapreduce.Conf) {
	c.SetInt(mapreduce.ConfIOSortMB, 1).
		SetFloat(mapreduce.ConfSortSpillPercent, 0.002).
		SetInt(mapreduce.ConfIOSortFactor, 2)
}

// spillCorpus is the wordcount corpus repeated until each of 3 maps sees
// dozens of spill triggers.
func spillCorpus() string {
	text, _ := corpus()
	return strings.Repeat(text, 10)
}

// TestAsyncSpillByteIdenticalToSync is the spill pipeline's identity claim:
// the background SpillThread pipeline (sort/combine/compress off the mapper
// goroutine, premerged trailing runs, overlapped final merge) must produce
// reduce output and counters byte-identical to fully synchronous spilling,
// across combiner / codec / in-flight-depth variants. The order cases run the
// arrival-order job at fan-ins 2, 3 and 10 — the two sides then merge a
// different pass structure (flat runs vs. premerged blocks), and only a merge
// that keeps ties in run order makes them agree. Run under -race this doubles
// as the concurrency witness for the buffer ring and segment pools.
func TestAsyncSpillByteIdenticalToSync(t *testing.T) {
	type spillCase struct {
		name     string
		combiner bool
		codec    bool
		inflight int
		order    bool
		factor   int
	}
	cases := []spillCase{
		{name: "plain"},
		{name: "combiner", combiner: true},
		{name: "codec", codec: true},
		{name: "combiner+codec", combiner: true, codec: true},
		{name: "inflight=3", inflight: 3},
	}
	for _, factor := range []int{2, 3, 10} {
		for _, on := range []bool{false, true} {
			cases = append(cases, spillCase{
				name:  fmt.Sprintf("order/factor=%d/combiner+codec=%v", factor, on),
				order: true, factor: factor, combiner: on, codec: on,
			})
		}
	}
	text := spillCorpus()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			build := func(sync bool) (*mapreduce.Job, *mapreduce.MemoryOutput) {
				newJob := wordCountJob
				if tc.order {
					newJob = orderJob
				}
				job, out := newJob(text, 3, 2, tc.combiner)
				spillHeavyConf(job.Conf)
				if tc.factor > 0 {
					job.Conf.SetInt(mapreduce.ConfIOSortFactor, tc.factor)
				}
				if tc.codec {
					job.Conf.SetBool(mapreduce.ConfCompressMapOut, true)
				}
				if tc.inflight > 0 {
					job.Conf.SetInt(mapreduce.ConfSpillInflight, tc.inflight)
				}
				if sync {
					job.Conf.SetBool(mapreduce.ConfSpillOverlap, false)
				}
				return job, out
			}

			asyncJob, asyncOut := build(false)
			asyncRes, err := Run(asyncJob, nil)
			if err != nil {
				t.Fatal(err)
			}
			syncJob, syncOut := build(true)
			syncRes, err := Run(syncJob, nil)
			if err != nil {
				t.Fatal(err)
			}

			if asyncRes.MapSpill.AsyncSpills == 0 {
				t.Fatal("async run never used the background spiller")
			}
			if syncRes.MapSpill.AsyncSpills != 0 {
				t.Fatal("sync twin spilled asynchronously")
			}
			// More spills per map than the fan-in, or no side goes multi-pass.
			if perMap := asyncRes.MapSpill.Spills / 3; perMap < 6 || perMap <= int64(tc.factor) {
				t.Fatalf("%d spills per map, config did not force the multi-pass path", perMap)
			}

			if got, want := outputFingerprint(asyncOut, 2), outputFingerprint(syncOut, 2); got != want {
				t.Error("reduce output differs between background and synchronous spilling")
			}
			if got, want := asyncRes.Counters.String(), syncRes.Counters.String(); got != want {
				t.Errorf("counters differ across spill modes:\nasync:\n%s\nsync:\n%s", got, want)
			}
		})
	}
}

// TestSpillStatsAccounted sanity-checks the new pipeline telemetry: spill
// work lands on the background spiller, the premerge fires under a tiny merge
// factor, and the derived overlap window is self-consistent.
func TestSpillStatsAccounted(t *testing.T) {
	text := spillCorpus()
	job, _ := wordCountJob(text, 2, 2, false)
	spillHeavyConf(job.Conf)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.MapSpill
	if st.Spills == 0 || st.AsyncSpills != st.Spills {
		t.Fatalf("spills = %d async = %d, want all spills on the background path", st.Spills, st.AsyncSpills)
	}
	if st.SpillWork <= 0 {
		t.Error("no spill work recorded on the background spiller")
	}
	if st.PremergedRuns == 0 {
		t.Error("factor-2 multi-spill run never premerged a block")
	}
	if st.FinalMerge <= 0 {
		t.Error("no final merge time recorded")
	}
	if st.Overlapped() < 0 {
		t.Errorf("overlap window negative: %v", st.Overlapped())
	}
}

// TestSyncSpillStatsStallEqualsWork pins the sync-mode accounting contract
// the mrbench speedup math relies on: inline sealing charges every spill as
// both collector stall and spill work, so Overlapped() reports zero.
func TestSyncSpillStatsStallEqualsWork(t *testing.T) {
	text := spillCorpus()
	job, _ := wordCountJob(text, 2, 2, false)
	spillHeavyConf(job.Conf)
	job.Conf.SetBool(mapreduce.ConfSpillOverlap, false)
	res, err := Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.MapSpill
	if st.Spills == 0 || st.AsyncSpills != 0 {
		t.Fatalf("spills = %d async = %d, want sync-only spills", st.Spills, st.AsyncSpills)
	}
	if st.CollectStall != st.SpillWork {
		t.Errorf("sync stall %v != spill work %v", st.CollectStall, st.SpillWork)
	}
	if got := st.Overlapped(); got != 0 {
		t.Errorf("sync run reports %v overlap, want 0", got)
	}
}
