package distrun

// Crash-everything tests: every test in this file runs a real multi-process
// job — coordinator in the test process, workers as spawned copies of the
// test binary — injures it somewhere (killed workers, partitions, a killed
// coordinator), and asserts the single invariant the runtime promises:
// recovery never changes output. Job digests, per-reduce digests and record
// counts, and the Task counter group must be byte-identical to a clean
// single-process localrun of the same configuration (the LocalOracle).
// Fault counters are exempt — they record what was survived, which is the
// point of the injury.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// TestMain lets these tests spawn real worker processes: the pool re-executes
// this test binary with the bootstrap environment set, and MaybeWorker turns
// those copies into workers instead of running the test suite again.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testConfig is small enough to keep every crash scenario inside a couple of
// seconds, but with enough tasks that a kill reliably lands mid-job.
func testConfig() microbench.Config {
	return microbench.Config{
		Pattern:     microbench.MRAvg,
		KeySize:     32,
		ValueSize:   32,
		PairsPerMap: 300,
		NumMaps:     6,
		NumReduces:  3,
		Slaves:      2,
		Seed:        42,
	}
}

// assertMatchesOracle compares a distributed run against the in-process
// oracle for the same configuration: output digests, per-reduce shape, and
// the Task counter group must match exactly.
func assertMatchesOracle(t *testing.T, cfg microbench.Config, got *Result) {
	t.Helper()
	want, err := LocalOracle(cfg)
	if err != nil {
		t.Fatalf("LocalOracle: %v", err)
	}
	if got.NumMaps != want.NumMaps || got.NumReduces != want.NumReduces {
		t.Fatalf("shape: got %dM/%dR, want %dM/%dR", got.NumMaps, got.NumReduces, want.NumMaps, want.NumReduces)
	}
	if got.JobDigest != want.JobDigest {
		t.Errorf("job digest: got %016x, want %016x", got.JobDigest, want.JobDigest)
	}
	for r := range want.PerReduceDigests {
		if got.PerReduceDigests[r] != want.PerReduceDigests[r] {
			t.Errorf("reduce %d digest: got %016x, want %016x", r, got.PerReduceDigests[r], want.PerReduceDigests[r])
		}
		if got.PerReduceRecords[r] != want.PerReduceRecords[r] {
			t.Errorf("reduce %d records: got %d, want %d", r, got.PerReduceRecords[r], want.PerReduceRecords[r])
		}
	}
	gotTask := got.Counters.Snapshot()[mapreduce.CounterGroupTask]
	wantTask := want.Counters.Snapshot()[mapreduce.CounterGroupTask]
	if !reflect.DeepEqual(gotTask, wantTask) {
		t.Errorf("task counters diverge:\n got  %v\n want %v", gotTask, wantTask)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) bool {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestBadConfFailsBeforeWorkersSpawn: a conf value the executor rejects is a
// typed error from Run itself. Before the coordinator built the task
// environment first, the same value panicked every spawned worker, which the
// pool then respawned.
func TestBadConfFailsBeforeWorkersSpawn(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraConf = map[string]string{mapreduce.ConfIOSortMB: "abc"}
	_, err := Run(cfg, &Options{Workers: 2, Respawn: true})
	var je *mapreduce.JobError
	if !errors.As(err, &je) || !strings.Contains(je.Msg, mapreduce.ConfIOSortMB) || !strings.Contains(je.Msg, `"abc"`) {
		t.Fatalf("Run = %v, want a *mapreduce.JobError naming key and value", err)
	}
}

// TestCleanRunMatchesOracle establishes the baseline: with nothing injured, a
// multi-process run is byte-identical to the single-process executor.
func TestCleanRunMatchesOracle(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &Options{Workers: 2, Digest: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesOracle(t, cfg, res)
	if res.RequeuedMaps != 0 || res.SpeculativeWins != 0 {
		t.Errorf("clean run reported recovery: requeued=%d specWins=%d", res.RequeuedMaps, res.SpeculativeWins)
	}
}

// TestForcedWorkerKills kills workers at seeded checkpoints spread across the
// job — early in the map phase, around the map/shuffle boundary, and deep in
// the reduce/shuffle phase (a worker's checkpoint sequence advances at task
// pickup, mid-shuffle, and pre-commit, so later sequences land in later
// phases). Killed workers take their shuffle servers and every committed map
// output they held with them; respawned incarnations (epoch 1, exempt from
// the forced schedule) plus fetch-failure re-execution must still converge
// to oracle output.
func TestForcedWorkerKills(t *testing.T) {
	cases := []struct {
		name  string
		kills map[int]int // worker index -> checkpoint seq
	}{
		{"early map", map[int]int{0: 0}},
		{"map commit boundary", map[int]int{0: 3}},
		{"mid shuffle both workers", map[int]int{0: 7, 1: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Faults = &faultinject.Plan{Seed: 11, WorkerKills: tc.kills}
			res, err := Run(cfg, &Options{Workers: 2, Digest: true, Respawn: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			assertMatchesOracle(t, cfg, res)
		})
	}
}

// TestRandomWorkerKillRate drives kills from a seeded per-checkpoint rate
// instead of a fixed schedule — every incarnation keeps rolling dice, so the
// run survives however many kills the seed decides to deal it.
func TestRandomWorkerKillRate(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faultinject.Plan{Seed: 5, WorkerKillRate: 0.15}
	res, err := Run(cfg, &Options{Workers: 3, Digest: true, Respawn: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesOracle(t, cfg, res)
}

// TestHarnessKillsWorkersMidPhase is the sigmaos-style harness: it watches
// the coordinator's progress from outside and SIGKILLs random workers at
// specific job phases — one as soon as the first map commits, another once
// the reduce phase is underway.
func TestHarnessKillsWorkersMidPhase(t *testing.T) {
	cfg := testConfig()
	cfg.NumMaps = 8
	coord, err := NewCoordinator(cfg, &Options{Digest: true})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Stop()
	pool, err := StartWorkers(coord.Addr(), 3, true)
	if err != nil {
		t.Fatalf("StartWorkers: %v", err)
	}
	defer pool.Close()

	// The harness races the job: if the job outruns a phase trigger the kill
	// simply never fires, which is fine — equality is asserted either way.
	go func() {
		if waitUntil(10*time.Second, func() bool { return coord.Progress().MapsCommitted >= 1 }) {
			pool.KillWorker(0)
		}
		if waitUntil(10*time.Second, func() bool {
			p := coord.Progress()
			return p.ReducesRunning >= 1 || p.ReducesCommitted >= 1
		}) {
			pool.KillWorker(1)
		}
	}()

	res, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	assertMatchesOracle(t, cfg, res)
}

// TestPartitionFencesWorker cuts one worker's control plane for longer than
// the worker timeout: the coordinator declares it dead, re-queues the map
// outputs it held, and fences its session. When the partition heals the
// worker is told it is fenced, re-registers, and re-announces its held map
// outputs — which the coordinator re-adopts instead of re-running, because
// the bytes never actually went anywhere.
func TestPartitionFencesWorker(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faultinject.Plan{
		Seed:              13,
		Partitions:        map[int]int{0: 2},
		PartitionDuration: 400 * time.Millisecond,
	}
	res, err := Run(cfg, &Options{
		Workers:        2,
		Digest:         true,
		HeartbeatEvery: 20 * time.Millisecond, // timeout 200ms < 400ms partition
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesOracle(t, cfg, res)
}

// TestSpeculativeExecution stalls one worker pre-commit (a partition shorter
// than the worker timeout, so the attempt stays alive but silent) and turns
// on straggler detection: the coordinator must schedule a duplicate attempt
// on the other worker, the duplicate's commit wins, and the woken straggler's
// late commit loses without corrupting anything. Worker 0 starts alone, so
// its first task is a map and the scripted stall fires; worker 1 is spawned
// only once that map is running — started together, a quick worker 1 can
// drain the map queue before worker 0 has registered.
func TestSpeculativeExecution(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faultinject.Plan{
		Seed:              17,
		Partitions:        map[int]int{0: 1}, // worker 0, pre-commit of its first map
		PartitionDuration: 500 * time.Millisecond,
	}
	coord, err := NewCoordinator(cfg, &Options{
		Digest:           true,
		WorkerTimeout:    5 * time.Second, // stalled, not dead: keep the attempt running
		SpeculativeAfter: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Stop()
	pool, err := StartWorkers(coord.Addr(), 1, false)
	if err != nil {
		t.Fatalf("StartWorkers: %v", err)
	}
	defer pool.Close()
	if !waitUntil(10*time.Second, func() bool { return coord.Progress().MapsRunning > 0 }) {
		t.Fatal("worker 0 never took a map")
	}
	if err := pool.spawn(1, 0); err != nil {
		t.Fatalf("spawning worker 1: %v", err)
	}
	res, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	pool.WaitIdle(2 * time.Second) // the straggler wakes, commits late and loses
	if res.SpeculativeWins == 0 {
		t.Errorf("expected at least one speculative win, got none")
	}
	assertMatchesOracle(t, cfg, res)
}

// TestCoordinatorCrashRestart kills the coordinator mid-job and starts a
// successor on the same address with the same write-ahead log. The successor
// must replay exactly the commits the WAL recorded, re-locate replayed map
// outputs from re-registering workers (whose retrying clients redial the
// address), finish the remaining work, and still produce oracle output.
func TestCoordinatorCrashRestart(t *testing.T) {
	cfg := testConfig()
	cfg.NumMaps = 8
	walPath := filepath.Join(t.TempDir(), "job.wal")

	first, err := NewCoordinator(cfg, &Options{Digest: true, WALPath: walPath})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	addr := first.Addr()
	pool, err := StartWorkers(addr, 2, true)
	if err != nil {
		first.Stop()
		t.Fatalf("StartWorkers: %v", err)
	}
	defer pool.Close()

	// Crash once some maps have committed (if the job is so fast it finishes
	// first, the successor simply resumes a complete log — still asserted).
	waitUntil(10*time.Second, func() bool { return first.Progress().MapsCommitted >= 2 })
	first.Kill()

	// What the WAL holds at the instant of death is exactly what the
	// successor must replay.
	entries, err := readWAL(walPath)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	walMaps := map[int]bool{}
	walReds := map[int]bool{}
	for _, e := range entries {
		switch e.Type {
		case "map":
			walMaps[e.Task] = true
		case "reduce":
			walReds[e.Task] = true
		}
	}

	second, err := NewCoordinator(cfg, &Options{
		Digest:        true,
		WALPath:       walPath,
		Addr:          addr,
		RecoveryGrace: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("restart NewCoordinator: %v", err)
	}
	defer second.Stop()

	res, err := second.Wait()
	if err != nil {
		t.Fatalf("Wait after restart: %v", err)
	}
	if res.RecoveredMaps != len(walMaps) {
		t.Errorf("RecoveredMaps = %d, want %d (WAL map commits)", res.RecoveredMaps, len(walMaps))
	}
	if res.RecoveredReduces != len(walReds) {
		t.Errorf("RecoveredReduces = %d, want %d (WAL reduce commits)", res.RecoveredReduces, len(walReds))
	}
	assertMatchesOracle(t, cfg, res)
	pool.WaitIdle(5 * time.Second)
}

// TestCoordinatorResumeCompleteWAL restarts a coordinator over the WAL of a
// finished job: it must declare the job done from the log alone — no
// workers, no re-execution — with the recorded digests intact.
func TestCoordinatorResumeCompleteWAL(t *testing.T) {
	cfg := testConfig()
	walPath := filepath.Join(t.TempDir(), "job.wal")
	res, err := Run(cfg, &Options{Workers: 2, Digest: true, WALPath: walPath})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	coord, err := NewCoordinator(cfg, &Options{Digest: true, WALPath: walPath})
	if err != nil {
		t.Fatalf("restart NewCoordinator: %v", err)
	}
	defer coord.Stop()
	resumed, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if resumed.RecoveredReduces != cfg.NumReduces {
		t.Errorf("RecoveredReduces = %d, want %d", resumed.RecoveredReduces, cfg.NumReduces)
	}
	if resumed.JobDigest != res.JobDigest {
		t.Errorf("resumed digest %016x != original %016x", resumed.JobDigest, res.JobDigest)
	}
	assertMatchesOracle(t, cfg, resumed)
}
