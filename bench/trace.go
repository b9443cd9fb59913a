package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
)

// span is one timed call into a layer's public function, recorded from
// outside the program. Spans of one staged replay share a job id; parent is
// the index of the enclosing span (-1 at the top). Counts are taken at the
// same boundary as the times.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	job        int
	bytes      int64
	records    int64
}

// tracer keeps spans in memory and writes them when the run ends. It also
// collects the per-layer metric values derived from them.
type tracer struct {
	epoch     time.Time
	spans     []span
	values    map[string]float64
	jobWallMs float64 // median untraced job wall of this run, for parallel_speedup
	nextJob   int
}

func newTracer(jobWallMs float64) *tracer {
	return &tracer{epoch: time.Now(), values: map[string]float64{}, jobWallMs: jobWallMs}
}

func (t *tracer) begin(name string, parent, job int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, job: job, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span id with the work it covered and returns its duration.
func (t *tracer) end(id int, bytes, records int64) time.Duration {
	s := &t.spans[id]
	s.end, s.bytes, s.records = time.Since(t.epoch), bytes, records
	return s.end - s.start
}

// timed records one leaf span around fn.
func (t *tracer) timed(name string, parent, job int, bytes, records int64, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, job)
	err := fn()
	return t.end(id, bytes, records), err
}

func (t *tracer) newJob() int { t.nextJob++; return t.nextJob }

// writeChrome writes the spans in the Chrome trace-event format
// internal/mrsim/trace.go emits (loadable in Perfetto): one "process" per
// job id, children one lane below their parent.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TsUs float64          `json:"ts"`
		DuUs float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	depth := make([]int, len(t.spans))
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		events[i] = event{
			Name: s.name, Cat: "bench", Ph: "X",
			TsUs: float64(s.start) / 1e3, DuUs: float64(s.end-s.start) / 1e3,
			PID: s.job, TID: depth[i],
			Args: map[string]int64{"span": int64(i), "parent": int64(s.parent), "bytes": s.bytes, "records": s.records},
		}
	}
	b, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// staged is what one staged serial replay measured.
type staged struct {
	maps, fetches, reduces []time.Duration
	wire                   int64
	retries                int64
	serve                  localrun.ServeStats // delta over the replay
	counters               *mapreduce.Counters
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

func (s *staged) total() time.Duration { return sum(s.maps) + sum(s.fetches) + sum(s.reduces) }

// stagedReplay runs job the way a distrun worker does, but serial on this
// goroutine: every map through TaskRunner.RunMap into a shuffle server, then
// per reduce every partition through FetchMapOutput over loopback TCP and the
// fetched parts through TaskRunner.RunReduce. One span per call.
func stagedReplay(t *tracer, job *mapreduce.Job, disk bool) (*staged, error) {
	tr, err := localrun.NewTaskRunner(job)
	if err != nil {
		return nil, err
	}
	newServer := localrun.NewShuffleServer
	if disk {
		newServer = localrun.NewDiskShuffleServer
	}
	server, err := newServer()
	if err != nil {
		return nil, err
	}
	defer server.Close()

	id := t.newJob()
	root := t.begin("staged-replay", -1, id)
	st := &staged{counters: mapreduce.NewCounters()}
	before := localrun.ShuffleServeStats()
	faultCtrs := mapreduce.NewCounters()
	for m := 0; m < tr.NumMaps(); m++ {
		sp := t.begin("localrun.TaskRunner.RunMap", root, id)
		ctrs, err := tr.RunMap(m, 0, server, nil, faultCtrs)
		if err != nil {
			return nil, err
		}
		st.maps = append(st.maps, t.end(sp, ctrs.Task(mapreduce.CtrMapOutputBytes), ctrs.Task(mapreduce.CtrMapOutputRecords)))
		st.counters.Merge(ctrs)
	}
	for r := 0; r < tr.NumReduces(); r++ {
		parts := make([]*kvbuf.Segment, tr.NumMaps())
		for m := range parts {
			sp := t.begin("localrun.FetchMapOutput", root, id)
			seg, wireLen, fst, err := localrun.FetchMapOutput(server.Addr(), m, r, tr.Compressed(), nil, faultinject.Backoff{})
			if err != nil {
				return nil, err
			}
			st.fetches = append(st.fetches, t.end(sp, wireLen, int64(seg.Records())))
			parts[m] = seg
			st.wire += wireLen
			st.retries += fst.Retries
			st.counters.IncrTask(mapreduce.CtrShuffledMaps, 1)
			st.counters.IncrTask(mapreduce.CtrReduceShuffleBytes, wireLen)
		}
		sp := t.begin("localrun.TaskRunner.RunReduce", root, id)
		ctrs, err := tr.RunReduce(r, 0, parts, nil)
		if err != nil {
			return nil, err
		}
		st.reduces = append(st.reduces, t.end(sp, 0, ctrs.Task(mapreduce.CtrReduceInputRecords)))
		st.counters.Merge(ctrs)
	}
	after := localrun.ShuffleServeStats()
	st.serve = localrun.ServeStats{
		SendfileBytes: after.SendfileBytes - before.SendfileBytes,
		WritevBytes:   after.WritevBytes - before.WritevBytes,
		Responses:     after.Responses - before.Responses,
	}
	t.end(root, st.wire, st.counters.Task(mapreduce.CtrMapOutputRecords))
	return st, nil
}

// stagedReplays repeats the staged replay for about budget (at least twice:
// the first pays cold pools) and reports the replay with the median total,
// whole, so that staged_sum_ms is exactly the sum of the spans reported
// beside it. want, when non-nil, is the untraced job's task counters, which
// every replay must reproduce; boundedReduce exempts SPILLED_RECORDS, because
// RunReduce is handed pre-fetched parts and never enters the bounded merge
// pool whose disk runs the in-process job counts there.
func stagedReplays(t *tracer, build func() (*mapreduce.Job, error), disk bool, budget time.Duration, want *mapreduce.Counters, boundedReduce bool) error {
	deadline := time.Now().Add(budget)
	var reps []*staged
	for len(reps) < 2 || time.Now().Before(deadline) {
		job, err := build()
		if err != nil {
			return err
		}
		st, err := stagedReplay(t, job, disk)
		if err != nil {
			return fmt.Errorf("staged replay: %w", err)
		}
		if want != nil {
			if err := sameTaskCounters(st.counters, want, boundedReduce); err != nil {
				return fmt.Errorf("staged replay: %w", err)
			}
		}
		reps = append(reps, st)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].total() < reps[j].total() })
	st := reps[(len(reps)-1)/2]

	v := t.values
	v["localrun.map_task_ms"] = ms(median(st.maps))
	v["localrun.map_tasks_sum_ms"] = ms(sum(st.maps))
	v["localrun.fetch_sum_ms"] = ms(sum(st.fetches))
	v["localrun.fetch_mb_per_s"] = mbPerS(st.wire, sum(st.fetches))
	v["localrun.fetch_wire_bytes"] = float64(st.wire)
	v["localrun.fetch_retries"] = float64(st.retries)
	v["localrun.serve_writev_bytes"] = float64(st.serve.WritevBytes)
	v["localrun.serve_sendfile_bytes"] = float64(st.serve.SendfileBytes)
	v["localrun.reduce_task_ms"] = ms(median(st.reduces))
	v["localrun.reduce_tasks_sum_ms"] = ms(sum(st.reduces))
	v["localrun.staged_sum_ms"] = ms(st.total())
	if t.jobWallMs > 0 {
		v["localrun.parallel_speedup"] = ms(st.total()) / t.jobWallMs
	}
	return nil
}

// sameTaskCounters compares the standard task counter group.
func sameTaskCounters(got, want *mapreduce.Counters, skipSpilled bool) error {
	g := got.Snapshot()[mapreduce.CounterGroupTask]
	w := want.Snapshot()[mapreduce.CounterGroupTask]
	if skipSpilled {
		delete(g, mapreduce.CtrSpilledRecords)
		delete(w, mapreduce.CtrSpilledRecords)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("merged task counters %v differ from the untraced job's %v", g, w)
	}
	return nil
}

// wallAtGOMAXPROCS1 runs one job with a single P: the single-threaded
// baseline parallel_speedup is read against.
func wallAtGOMAXPROCS1(t *tracer, job func() (jobSample, error)) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	id := t.begin("job@GOMAXPROCS=1", -1, t.newJob())
	s, err := job()
	t.end(id, s.bytes, s.records)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=1 job: %w", err)
	}
	t.values["localrun.wall_ms_gomaxprocs1"] = ms(s.wall)
	return nil
}

func (w *localWL) trace(t *tracer, budget time.Duration) error {
	build := func() (*mapreduce.Job, error) { return microbench.BuildJob(w.cfg) }
	if err := stagedReplays(t, build, w.disk, budget*6/10, w.last.Counters, w.cfg.ShuffleMemBudget > 0); err != nil {
		return err
	}
	if err := wallAtGOMAXPROCS1(t, w.job); err != nil {
		return err
	}
	return syntheticSpans(t, w.cfg, w.e.tmp)
}
