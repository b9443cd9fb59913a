package localrun

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
)

// knobs is every field newTaskRunner resolves from the conf and Options.
type knobs struct {
	codec      kvbuf.Codec
	sortBytes  int
	factor     int
	spillPct   float64
	inflight   int
	slowstart  float64
	copies     int
	memBudget  int64
	spillAbove int64
	attempts   int
	fetchTries int
}

func knobsOf(tr *TaskRunner) knobs {
	return knobs{tr.codec, tr.sortBytes, tr.factor, tr.spillPct, tr.inflight, tr.slowstart,
		tr.copies, tr.memBudget, tr.spillAbove, tr.attempts, tr.backoff.Attempts}
}

// TestTaskRunnerResolvesConf: the job Conf is the one source of every
// executor knob, resolved once; Options only overrides what a conf cannot
// say about this host and this run.
func TestTaskRunnerResolvesConf(t *testing.T) {
	defaults := knobs{nil, 100 << 20, 10, 0.80, 1, 0.05, 5, 0, 0, 1, 0}
	with := func(mod func(*knobs)) knobs {
		k := defaults
		mod(&k)
		return k
	}
	plan := &faultinject.Plan{Seed: 1, MapFailureRate: 0.1}
	for _, tc := range []struct {
		name string
		conf map[string]string
		opts Options
		want knobs
	}{
		{name: "defaults", want: defaults},
		{
			name: "every executor key set",
			conf: map[string]string{
				mapreduce.ConfIOSortMB:             "3",
				mapreduce.ConfIOSortFactor:         "4",
				mapreduce.ConfSortSpillPercent:     "0.5",
				mapreduce.ConfSpillInflight:        "3",
				mapreduce.ConfSlowstartMaps:        "1",
				mapreduce.ConfParallelCopies:       "7",
				mapreduce.ConfShuffleInputBufBytes: "1000",
				mapreduce.ConfShuffleMergePct:      "0.5",
				mapreduce.ConfCompressMapOut:       "true",
				mapreduce.ConfCompressCodec:        "deflate",
			},
			want: knobs{kvbuf.Deflate, 3 << 20, 4, 0.5, 3, 1, 7, 1000, 500, 1, 0},
		},
		{
			name: "sync spill ignores inflight",
			conf: map[string]string{mapreduce.ConfSpillOverlap: "false", mapreduce.ConfSpillInflight: "3"},
			want: with(func(k *knobs) { k.inflight = 0 }),
		},
		{
			name: "Options.ParallelCopies overrides the conf",
			conf: map[string]string{mapreduce.ConfParallelCopies: "7"},
			opts: Options{ParallelCopies: 2},
			want: with(func(k *knobs) { k.copies = 2 }),
		},
		{
			name: "compress on, no codec named",
			conf: map[string]string{mapreduce.ConfCompressMapOut: "true"},
			want: with(func(k *knobs) { k.codec = kvbuf.Deflate }),
		},
		{
			name: "compress on, codec none",
			conf: map[string]string{mapreduce.ConfCompressMapOut: "true", mapreduce.ConfCompressCodec: "none"},
			want: defaults,
		},
		{
			name: "compress off, codec named",
			conf: map[string]string{mapreduce.ConfCompressCodec: "deflate"},
			want: defaults,
		},
		{
			name: "budget 0 is unbounded",
			conf: map[string]string{mapreduce.ConfShuffleInputBufBytes: "0"},
			want: defaults,
		},
		{
			name: "budget > 0 takes the default merge percent",
			conf: map[string]string{mapreduce.ConfShuffleInputBufBytes: "65536"},
			want: with(func(k *knobs) { k.memBudget, k.spillAbove = 65536, 43253 }),
		},
		{
			name: "fault plan sets the attempt bounds",
			opts: Options{Faults: plan},
			want: with(func(k *knobs) { k.attempts, k.fetchTries = plan.TaskAttempts(), plan.FetchAttempts() }),
		},
		{
			name: "explicit bounds win over the plan's",
			opts: Options{Faults: plan, MaxTaskAttempts: 9, FetchBackoff: faultinject.Backoff{Attempts: 2, Base: time.Millisecond}},
			want: with(func(k *knobs) { k.attempts, k.fetchTries = 9, 2 }),
		},
	} {
		job, _ := wordCountJob("a b\nc d\n", 2, 3, false)
		job.Conf = mapreduce.NewConf().SetInt(mapreduce.ConfNumMaps, 2).SetInt(mapreduce.ConfNumReduces, 3)
		for k, v := range tc.conf {
			job.Conf.Set(k, v)
		}
		tr, err := newTaskRunner(job, &tc.opts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := knobsOf(tr); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if tr.NumMaps() != 2 || tr.NumReduces() != 3 || tr.cmp == nil || tr.prefix == nil || tr.plan != tc.opts.Faults {
			t.Errorf("%s: job-scoped state not resolved: %d maps, %d reduces, plan %v", tc.name, tr.NumMaps(), tr.NumReduces(), tr.plan)
		}
		if tr.Compressed() != (tc.want.codec != nil) {
			t.Errorf("%s: Compressed() = %v with codec %v", tc.name, tr.Compressed(), tc.want.codec)
		}
	}
}

// TestBadConfFailsBeforeAnyTask: a conf value that does not parse, is out of
// range or names an unknown codec is a typed error naming key and value from
// Run and NewTaskRunner alike, returned before a single task is built — not a
// panic inside a map goroutine, not "failed after N attempts".
func TestBadConfFailsBeforeAnyTask(t *testing.T) {
	for _, tc := range []struct{ key, value string }{
		{mapreduce.ConfIOSortMB, "abc"},
		{mapreduce.ConfIOSortMB, "0"},
		{mapreduce.ConfIOSortFactor, "1"},
		{mapreduce.ConfSortSpillPercent, "1.5"},
		{mapreduce.ConfSortSpillPercent, "NaN"},
		{mapreduce.ConfSpillOverlap, "maybe"},
		{mapreduce.ConfSpillInflight, "two"},
		{mapreduce.ConfSlowstartMaps, "-0.1"},
		{mapreduce.ConfParallelCopies, "0"},
		{mapreduce.ConfShuffleInputBufBytes, "-1"},
		{mapreduce.ConfShuffleMergePct, "0"},
		{mapreduce.ConfCompressMapOut, "yes!"},
		{mapreduce.ConfCompressCodec, "lz9"},
		{mapreduce.ConfNumReduces, "many"},
	} {
		job, _ := wordCountJob("a b\nc d\n", 2, 2, false)
		job.Conf.SetBool(mapreduce.ConfCompressMapOut, true).Set(tc.key, tc.value)
		var started atomic.Int64
		mapper := job.Mapper
		job.Mapper = func() mapreduce.Mapper {
			started.Add(1)
			return mapper()
		}
		// A fault plan widens the attempt budget: a bad value must not burn it.
		opts := &Options{Faults: &faultinject.Plan{Seed: 3}, MaxTaskAttempts: 4}
		_, runErr := Run(job, opts)
		_, newErr := NewTaskRunner(job)
		for entry, err := range map[string]error{"Run": runErr, "NewTaskRunner": newErr} {
			var je *mapreduce.JobError
			if !errors.As(err, &je) {
				t.Errorf("%s=%s: %s returned %v, want a *mapreduce.JobError", tc.key, tc.value, entry, err)
				continue
			}
			if !strings.Contains(je.Msg, tc.key) || !strings.Contains(je.Msg, `"`+tc.value+`"`) {
				t.Errorf("%s=%s: %s error %q does not name key and value", tc.key, tc.value, entry, je.Msg)
			}
			if strings.Contains(je.Msg, "attempts") {
				t.Errorf("%s=%s: %s error %q came out of the retry loop", tc.key, tc.value, entry, je.Msg)
			}
		}
		if n := started.Load(); n != 0 {
			t.Errorf("%s=%s: %d mappers were built before the conf was rejected", tc.key, tc.value, n)
		}
	}
}
