package distrun

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/leakcheck"
	"mrmicro/internal/localrun"
)

// lostHarness drives a coordinator's handlers by hand: hosts commit the
// map and fall silent, and a reducer reports the map's output lost.
type lostHarness struct {
	t *testing.T
	c *Coordinator
}

// newLostHarness starts a coordinator for one map and one reduce under a
// bound of attempts; its workers time out after 40ms of silence.
func newLostHarness(t *testing.T, attempts int, opts Options) *lostHarness {
	cfg := testConfig()
	cfg.NumMaps, cfg.NumReduces = 1, 1
	cfg.Faults = &faultinject.Plan{MaxTaskAttempts: attempts}
	opts.HeartbeatEvery, opts.WorkerTimeout = 2*time.Millisecond, 40*time.Millisecond
	c, err := NewCoordinator(cfg, &opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return &lostHarness{t: t, c: c}
}

// register opens a new session of worker slot slot.
func (h *lostHarness) register(slot int) int64 {
	resp, err := h.c.handleRegister(&registerReq{Index: slot, Addr: fmt.Sprintf("127.0.0.1:%d", 40000+slot)})
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.Session
}

func (h *lostHarness) task(session int64, kind string) *taskResp {
	resp, err := h.c.handleGetTask(&sessionReq{Session: session})
	if err != nil || resp.Kind != kind {
		h.t.Fatalf("session %d was handed %+v (err %v), want a %s task", session, resp, err, kind)
	}
	return resp
}

func (h *lostHarness) commitMap(host int64) {
	m := h.task(host, TaskMap)
	if resp, err := h.c.handleCommitMap(&commitMapReq{Session: host, Task: m.Task, Attempt: m.Attempt}); err != nil || !resp.Win {
		h.t.Fatalf("map commit: %+v, err %v", resp, err)
	}
}

// lose has a new session of slot commit the map and fall silent, and
// reducer report the output lost. The map re-queues at once; the reducer
// keeps calling in until the timeout declares the host dead and the report
// is settled.
func (h *lostHarness) lose(slot int, reducer int64) {
	h.commitMap(h.register(slot))
	r := h.task(reducer, TaskReduce)
	if _, err := h.c.handleTaskFailed(&taskFailedReq{Session: reducer, Kind: TaskReduce, Task: r.Task, Attempt: r.Attempt,
		Err: "connection refused", Lost: &r.Maps[0]}); err != nil {
		h.t.Fatal(err)
	}
	h.c.mu.Lock()
	requeued := !h.c.maps[0].committed
	h.c.mu.Unlock()
	if !requeued {
		h.t.Fatalf("slot %d: the report left map 0 committed", slot)
	}
	if !waitUntil(5*time.Second, func() bool {
		h.c.handleHeartbeat(&sessionReq{Session: reducer})
		h.c.mu.Lock()
		defer h.c.mu.Unlock()
		return len(h.c.held) == 0
	}) {
		h.t.Fatalf("slot %d: the report never settled", slot)
	}
}

// TestLostOutputRerunIsKilled loses one map's committed output with its
// host MaxTaskAttempts times. Each time a reduce reports the fetch failure
// while the host still looks alive; the host never calls again, the
// heartbeat timeout declares it dead, and the loss is charged to the host's
// worker slot, not to the map, which re-runs KILLED. A third host's commit
// lets the reduce commit and the job end done. Charging the map instead, as
// a fetch failure against a live host is charged, ends the job with
// ErrAttemptsExhausted at the second loss.
func TestLostOutputRerunIsKilled(t *testing.T) {
	leakcheck.Check(t, 0)
	h := newLostHarness(t, 2, Options{})
	reducer := h.register(9)
	for loss := 0; loss < 2; loss++ {
		h.lose(loss, reducer)
		if err := context.Cause(h.c.job); err != nil {
			t.Fatalf("loss %d ended the job: %v", loss+1, err)
		}
	}
	h.commitMap(h.register(2))
	r := h.task(reducer, TaskReduce)
	if _, err := h.c.handleCommitReduce(&commitReduceReq{Session: reducer, Task: r.Task, Attempt: r.Attempt}); err != nil {
		t.Fatal(err)
	}
	if err := context.Cause(h.c.job); err != errJobDone {
		t.Fatalf("job ended %v, want done", err)
	}
}

// TestExhaustedSlotsEndTheJob: under a bound of one, a worker slot whose
// death loses map output once gets no more tasks, even in a new session,
// and the job goes on while a registered slot is healthy, whatever
// Options.Workers says; once every registered slot is excluded, the job
// ends with an ErrAttemptsExhausted naming the last.
func TestExhaustedSlotsEndTheJob(t *testing.T) {
	leakcheck.Check(t, 0)
	h := newLostHarness(t, 1, Options{})
	reducer := h.register(2)
	for slot := 0; slot < 2; slot++ {
		h.lose(slot, reducer)
		if task, _ := h.c.handleGetTask(&sessionReq{Session: h.register(slot)}); task.Kind != TaskWait {
			t.Fatalf("the exhausted slot %d was handed %+v in a new session", slot, task)
		}
	}
	if err := context.Cause(h.c.job); err != nil {
		t.Fatalf("two slots of three exhausted ended the job: %v", err)
	}
	h.lose(2, reducer)
	var ex *localrun.ExhaustedError
	if err := context.Cause(h.c.job); !errors.As(err, &ex) || !ex.HostLost || ex.Worker != 2 {
		t.Fatalf("every slot exhausted: job ended %v, want an ExhaustedError naming worker 2", err)
	}
}

// TestOneSlotExhaustedEndsTheJob: a coordinator told nothing of its workers
// (mrcoord's) serves one hand-started slot whose sessions keep dying with
// the map's output. Once that slot is charged the bound's worth of times,
// the job ends with an ErrAttemptsExhausted naming it, instead of waiting
// forever for a slot that never registers.
func TestOneSlotExhaustedEndsTheJob(t *testing.T) {
	leakcheck.Check(t, 0)
	h := newLostHarness(t, 2, Options{})
	reducer := h.register(0)
	h.lose(0, reducer)
	if err := context.Cause(h.c.job); err != nil {
		t.Fatalf("the first loss ended the job: %v", err)
	}
	h.lose(0, reducer)
	var ex *localrun.ExhaustedError
	if err := context.Cause(h.c.job); !errors.As(err, &ex) || !ex.HostLost || ex.Worker != 0 {
		t.Fatalf("the only slot exhausted: job ended %v, want an ExhaustedError naming worker 0", err)
	}
}

// TestSlotDeathsBoundLostOutput: the deaths of one worker slot that lose
// map output are bounded like a task's attempts, so a job whose hosts keep
// dying still ends, with an error naming the slot.
func TestSlotDeathsBoundLostOutput(t *testing.T) {
	b := localrun.NewBlame(&faultinject.Plan{MaxTaskAttempts: 3})
	cause := errors.New("connection refused")
	for i := 1; i < 3; i++ {
		if err := b.Lost(1, cause); err != nil {
			t.Fatalf("death %d: %v", i, err)
		}
		if err := b.Lost(0, cause); err != nil {
			t.Fatalf("slot 0, death %d: %v", i, err)
		}
	}
	err := b.Lost(1, cause)
	var ex *localrun.ExhaustedError
	if !errors.As(err, &ex) || !ex.HostLost || ex.Worker != 1 || !errors.Is(err, localrun.ErrAttemptsExhausted) {
		t.Fatalf("third death of slot 1: %v, want an ExhaustedError naming worker 1", err)
	}
	if want := "localrun: worker 1 lost map output 3 times: connection refused"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestLostOutputOfKilledHost is TestLostOutputRerunIsKilled with a real
// kill and the oracle digest. Worker 0 starts alone, commits the only map,
// and the plan kills it at its next task's pickup, so the map's output dies
// with its host. Worker 1 is partitioned at its reduce's pickup for less
// than the worker timeout, so it fetches from the dead host while the host
// still looks alive: the reduce reports the output lost, and once the host
// times out the loss is charged to its slot. Under a bound of one attempt
// the map is lost as often as the bound allows, and the job still ends with
// oracle output; charged to the map instead, the loss ends it exhausted.
func TestLostOutputOfKilledHost(t *testing.T) {
	leakcheck.Check(t, leakcheck.ReapGrace)
	inBothModes(t, func(t *testing.T) {
		cfg := testConfig()
		cfg.NumMaps, cfg.NumReduces = 1, 2
		cfg.Faults = &faultinject.Plan{
			Seed:              23,
			MaxTaskAttempts:   1,
			WorkerKills:       map[int]int{0: 2}, // worker 0: pre-task, pre-commit of the map, then this
			Partitions:        map[int]int{1: 0}, // worker 1: the pickup of its reduce
			PartitionDuration: 150 * time.Millisecond,
		}
		coord, err := NewCoordinator(cfg, &Options{
			Digest:         true,
			HeartbeatEvery: 20 * time.Millisecond,
			WorkerTimeout:  time.Second, // the report comes while the dead host looks alive
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		defer coord.Stop()
		pool, err := startWorkers(coord.Addr(), 1, true)
		if err != nil {
			t.Fatalf("StartWorkers: %v", err)
		}
		defer pool.Close()
		if !waitUntil(10*time.Second, func() bool {
			p := coord.Progress()
			return p.MapsRunning > 0 || p.MapsCommitted > 0
		}) {
			t.Fatal("worker 0 never took the map")
		}
		if err := pool.spawn(1, 0); err != nil {
			t.Fatalf("spawning worker 1: %v", err)
		}
		res, err := coord.Wait()
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if res.RequeuedMaps == 0 {
			t.Error("the map's output was never lost")
		}
		assertMatchesOracle(t, cfg, res)
	})
}
