// Package distrun is the suite's real distributed runtime: a coordinator
// that assigns task attempts to worker *processes* over internal/hadooprpc,
// with each worker serving its committed map outputs from its own
// localrun shuffle server (the TCP data plane the in-process executor
// already uses). Workers heartbeat; a silent worker is declared dead, its
// running attempts and its committed map outputs are re-queued (map output
// dies with its node, as in Hadoop), and reducers report fetch failures so
// lost maps re-execute. Stragglers get speculative second attempts — the
// first committed attempt wins. Every commit is appended to a write-ahead
// task log, so a killed coordinator can be restarted on the same address
// and resume from committed work instead of rerunning the job.
//
// Because workers execute the exact localrun task bodies
// (localrun.TaskRunner), copy phase included, over the exact same shuffle
// bytes, a distributed run's output digest and task counters are
// byte-identical to a single-process run of the same config — the invariant
// the crash tests and mrcheck's dist engine assert.
package distrun

import (
	"encoding/json"
	"fmt"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/writable"
)

// Protocol is the hadooprpc protocol name coordinator and workers speak.
const Protocol = "mrmicro.DistCoordinator"

// RPC methods. Every call carries one JSON-encoded request in a
// BytesWritable and returns one JSON-encoded response the same way: the
// transport stays pure hadooprpc (magic, protocol header, numbered calls,
// Writable framing) while the control-plane schema can grow fields without
// re-plumbing Writable codecs.
const (
	MethodRegister     = "register"
	MethodHeartbeat    = "heartbeat"
	MethodGetTask      = "gettask"
	MethodCommitMap    = "commitmap"
	MethodCommitReduce = "commitreduce"
	MethodTaskFailed   = "taskfailed"
)

// heldMap is one committed map output a worker still serves, reported at
// (re-)registration so a restarted coordinator can locate WAL-committed
// maps without re-running them.
type heldMap struct {
	Map     int   `json:"map"`
	Version int64 `json:"version"`
}

// registerReq announces a worker to the coordinator. Index and Epoch come
// from the spawner (epoch counts process incarnations of the same slot, so
// seeded fault schedules distinguish a worker from its replacement).
type registerReq struct {
	Index int       `json:"index"`
	Epoch int       `json:"epoch"`
	Addr  string    `json:"addr"` // the worker's shuffle-server address
	Held  []heldMap `json:"held,omitempty"`
}

// registerResp hands the worker everything it needs to run tasks: a fencing
// session token, the job (as repro flags — the same vector mrbench parses),
// and the fault plan driving both task-level and process-level injection.
type registerResp struct {
	Session        int64             `json:"session"`
	Repro          []string          `json:"repro"`
	Digest         bool              `json:"digest"`
	Plan           *faultinject.Plan `json:"plan,omitempty"`
	HeartbeatEvery int64             `json:"heartbeatEvery"` // nanoseconds
}

// sessionReq identifies the calling worker on every post-register method.
type sessionReq struct {
	Session int64 `json:"session"`
}

// sessionResp carries the coordinator's verdict on the session: a fenced
// worker (declared dead, or talking to a restarted coordinator) must
// re-register before any further work is accepted.
type sessionResp struct {
	Fenced bool `json:"fenced,omitempty"`
}

// Task kinds handed out by gettask.
const (
	TaskWait   = "wait"   // nothing runnable now; poll again
	TaskMap    = "map"    // run map task Task, attempt Attempt
	TaskReduce = "reduce" // run reduce task Task over Maps
	TaskExit   = "exit"   // job finished (or failed); worker exits
)

// mapLoc tells a reducer where one map's committed output lives.
type mapLoc struct {
	Map     int    `json:"map"`
	Version int64  `json:"version"`
	Addr    string `json:"addr"`
}

// taskResp is one task assignment.
type taskResp struct {
	sessionResp
	Kind    string   `json:"kind"`
	Task    int      `json:"task,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Maps    []mapLoc `json:"maps,omitempty"` // reduce only: every map's location, in map order
	Err     string   `json:"err,omitempty"`  // exit only: job failure, if any
}

// commitMapReq reports a completed map attempt.
type commitMapReq struct {
	Session  int64                       `json:"session"`
	Task     int                         `json:"task"`
	Attempt  int                         `json:"attempt"`
	Counters map[string]map[string]int64 `json:"counters"`
}

// commitResp says whether the attempt won its task. A losing (speculative or
// superseded) map attempt must unregister its output so reducers can only
// ever fetch winning bytes. Version is the winning map's announcement
// version (what the worker reports in Held after a coordinator restart).
type commitResp struct {
	sessionResp
	Win     bool  `json:"win"`
	Version int64 `json:"version,omitempty"`
}

// commitReduceReq reports a completed reduce attempt, carrying everything
// the coordinator needs to finalize the task without touching worker state
// again: counters, the output digest, and the input record count.
type commitReduceReq struct {
	Session  int64                       `json:"session"`
	Task     int                         `json:"task"`
	Attempt  int                         `json:"attempt"`
	Counters map[string]map[string]int64 `json:"counters"`
	Digest   uint64                      `json:"digest"`
	Records  int64                       `json:"records"`
}

// taskFailedReq reports a failed attempt, charged by localrun's Blame rule.
// Lost names the map output a reduce attempt ran out of fetch retries on, at
// the version and address it was given, and Err is then the fetch's cause:
// the map is charged, not the reduce (Hadoop likewise blames the mapper),
// and re-runs as a new version unless that version was already superseded.
type taskFailedReq struct {
	Session int64   `json:"session"`
	Kind    string  `json:"kind"` // TaskMap or TaskReduce
	Task    int     `json:"task"`
	Attempt int     `json:"attempt"`
	Err     string  `json:"err"`
	Lost    *mapLoc `json:"lost,omitempty"`
}

// rpcCaller abstracts hadooprpc.Client / hadooprpc.RetryClient.
type rpcCaller interface {
	Call(method string, result writable.Writable, params ...writable.Writable) error
}

// call performs one JSON-over-Writable RPC round trip.
func call(c rpcCaller, method string, req, resp any) error {
	data, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("distrun: marshal %s: %w", method, err)
	}
	var out writable.BytesWritable
	if err := c.Call(method, &out, &writable.BytesWritable{Data: data}); err != nil {
		return err
	}
	if err := json.Unmarshal(out.Data, resp); err != nil {
		return fmt.Errorf("distrun: unmarshal %s reply: %w", method, err)
	}
	return nil
}

// handler adapts a JSON request/response function to a hadooprpc.Handler.
func handler[Req, Resp any](fn func(*Req) (*Resp, error)) func(*writable.DataInput, *writable.DataOutput) error {
	return func(in *writable.DataInput, out *writable.DataOutput) error {
		var b writable.BytesWritable
		if err := b.ReadFields(in); err != nil {
			return err
		}
		req := new(Req)
		if err := json.Unmarshal(b.Data, req); err != nil {
			return err
		}
		resp, err := fn(req)
		if err != nil {
			return err
		}
		data, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		(&writable.BytesWritable{Data: data}).Write(out)
		return nil
	}
}
