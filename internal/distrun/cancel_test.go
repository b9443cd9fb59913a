package distrun

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrmicro/internal/leakcheck"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// cancelPoints are where TestCancelEndsEveryJob cancels a running job.
var cancelPoints = []string{"before-dispatch", "mid-map", "mid-copy-phase", "mid-reduce"}

// TestCancelEndsEveryJob cancels a job on both real engines at seeded
// points: before dispatch, mid-map, mid-copy-phase (a 1-byte shuffle pool, so
// the copiers have spilled to disk) and mid-reduce. Every run must return an
// error wrapping context.Canceled within a second of the cancel and leave no
// goroutine, descriptor, worker or temp path behind. Engine "inproc" is dist
// with its workers run as goroutines of the test process, checked with no
// reap grace.
//
// localrun is cancelled from inside its own mapper and reducer, counting
// collected records (maps run one at a time, so record k*pairs+1 is map k's
// first) and reduce groups; dist is cancelled when its write-ahead log shows
// the seeded number of commits.
func TestCancelEndsEveryJob(t *testing.T) {
	const seed = 47
	cfg, err := microbench.ParseRepro(strings.Fields(
		"-pairs 300 -kv 32 -maps 8 -reduces 6 -slowstart 0.05 -parallelcopies 2 -shufflemem 1 -mergefactor 2 -seed 42"))
	if err != nil {
		t.Fatal(err)
	}
	var pools []*WorkerPool
	start := StartWorkers
	startWorkers = func(addr string, n int, respawn bool) (*WorkerPool, error) {
		p, err := start(addr, n, respawn)
		if p != nil {
			pools = append(pools, p)
		}
		return p, err
	}
	defer func() { startWorkers = StartWorkers }()

	rng := rand.New(rand.NewPCG(seed, 0))
	for _, engine := range []string{"localrun", "dist", "inproc"} {
		if engine == "inproc" {
			start = startInProcess
		}
		for _, point := range cancelPoints {
			t.Run(engine+"/"+point, func(t *testing.T) {
				var grace time.Duration
				if engine == "dist" {
					grace = leakcheck.ReapGrace
				}
				tmp := leakcheck.Check(t, grace)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var cancelled atomic.Int64 // UnixNano of the cancel
				stop := func() {
					cancelled.CompareAndSwap(0, time.Now().UnixNano())
					cancel()
				}
				run := cancelDist
				if engine == "localrun" {
					run = cancelLocal
				}
				start := run(t, ctx, cfg, point, rng, tmp, stop)
				result := make(chan error, 1)
				go func() { result <- start() }()
				var err error
				select {
				case err = <-result:
				case <-time.After(10 * time.Second):
					t.Fatal("no verdict within 10 s")
				}
				if at := cancelled.Load(); at == 0 {
					t.Fatalf("the job ended (%v) before the %s cancel", err, point)
				} else if d := time.Since(time.Unix(0, at)); d > time.Second {
					t.Errorf("returned %v after the cancel, want within 1 s", d)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("error %v, want one wrapping context.Canceled", err)
				}
				cancel() // the dist poller ends with the context
				for _, p := range pools {
					if n := p.Live(); n != 0 {
						t.Errorf("%d workers still live", n)
					}
				}
			})
		}
	}
}

// cancelLocal prepares a localrun job that calls stop at point.
func cancelLocal(t *testing.T, ctx context.Context, cfg microbench.Config, point string, rng *rand.Rand, tmp string, stop func()) func() error {
	job, err := microbench.BuildJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := cfg.PairsPerMap
	var mapped, reduced atomic.Int64
	onMap, onReduce := func(int64) {}, func(int64) {}
	switch point {
	case "before-dispatch":
		stop()
	case "mid-map":
		at := 1 + rng.Int64N(int64(cfg.NumMaps)*pairs-1)
		onMap = func(n int64) {
			if n == at {
				stop()
			}
		}
	case "mid-copy-phase":
		at := (1+rng.Int64N(int64(cfg.NumMaps)-1))*pairs + 1
		onMap = func(n int64) {
			if n != at {
				return
			}
			// The reducers launched after map 0 committed; wait until
			// their copiers have spilled a fetched segment to a run file
			// in the job's scratch root.
			if !waitUntil(2*time.Second, func() bool {
				runs, _ := filepath.Glob(filepath.Join(tmp, "mrmicro-job-*", "mrmicro-run-*.ifile"))
				return len(runs) > 0
			}) {
				t.Error("no copy phase spilled to disk")
			}
			stop()
		}
	case "mid-reduce":
		at := 1 + rng.Int64N(int64(cfg.NumReduces/2))
		onReduce = func(n int64) {
			if n == at {
				stop()
			}
		}
	}
	mapper, reducer := job.Mapper, job.Reducer
	job.Mapper = func() mapreduce.Mapper { return &hookedMapper{mapper(), func() { onMap(mapped.Add(1)) }} }
	job.Reducer = func() mapreduce.Reducer { return &hookedReducer{reducer(), func() { onReduce(reduced.Add(1)) }} }
	return func() error {
		_, err := localrun.RunContext(ctx, job, &localrun.Options{MapParallelism: 1})
		return err
	}
}

// cancelDist prepares a dist job and a poller of its write-ahead log that
// calls stop at point.
func cancelDist(t *testing.T, ctx context.Context, cfg microbench.Config, point string, rng *rand.Rand, _ string, stop func()) func() error {
	wal := filepath.Join(t.TempDir(), "wal")
	var reached func(maps, reduces int) bool
	switch point {
	case "before-dispatch":
		stop()
	case "mid-map":
		k := 1 + rng.IntN(cfg.NumMaps/2)
		reached = func(maps, _ int) bool { return maps >= k }
	case "mid-copy-phase":
		reached = func(maps, _ int) bool { return maps == cfg.NumMaps }
	case "mid-reduce":
		k := 1 + rng.IntN(cfg.NumReduces/2)
		reached = func(_, reduces int) bool { return reduces >= k }
	}
	if reached != nil {
		go func() {
			for ctx.Err() == nil {
				entries, _, _ := readWAL(wal)
				done := map[string]map[int]bool{"map": {}, "reduce": {}}
				for _, e := range entries {
					done[e.Type][e.Task] = true
				}
				if reached(len(done["map"]), len(done["reduce"])) {
					stop()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	return func() error {
		_, err := RunContext(ctx, cfg, &Options{WALPath: wal})
		return err
	}
}

type hookedMapper struct {
	mapreduce.Mapper
	hook func()
}

func (m *hookedMapper) Map(k, v writable.Writable, out mapreduce.Collector, rep mapreduce.Reporter) error {
	return m.Mapper.Map(k, v, mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		m.hook()
		return out.Collect(k, v)
	}), rep)
}

type hookedReducer struct {
	mapreduce.Reducer
	hook func()
}

func (r *hookedReducer) Reduce(k writable.Writable, vs mapreduce.ValueIterator, out mapreduce.Collector, rep mapreduce.Reporter) error {
	r.hook()
	return r.Reducer.Reduce(k, vs, out, rep)
}

// TestWorkerKillLeavesNoTempPath replays the corpus's bounded copy phase
// under random worker kills. A killed worker cannot remove its run files
// itself, so the pool removes the temp dir it gave the process: three
// replays leave nothing in TMPDIR.
func TestWorkerKillLeavesNoTempPath(t *testing.T) {
	leakcheck.Check(t, leakcheck.ReapGrace)
	data, err := os.ReadFile("../mrcheck/testdata/corpus/dist-bounded-worker-kill.repro")
	if err != nil {
		t.Fatal(err)
	}
	var args []string
	for line := range strings.Lines(string(data)) {
		line, _, _ = strings.Cut(line, "#")
		args = append(args, strings.Fields(line)...)
	}
	cfg, err := microbench.ParseRepro(args)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := Run(cfg, &Options{Workers: 2, Respawn: true, Digest: true}); err != nil && !errors.Is(err, localrun.ErrAttemptsExhausted) {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}
