package mrsim

import (
	"fmt"
	"slices"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// Container sizes (MB), Hadoop 2.x defaults of the paper's era.
const (
	defaultMapContainerMB    = 1024
	defaultReduceContainerMB = 1024
	amContainerMB            = 1536
	amHeartbeatSeconds       = 1.0
)

// YARN schedules the Hadoop 2.x way: a ResourceManager leases memory-sized
// containers on NodeManagers to a per-job ApplicationMaster, which runs map
// tasks first and ramps up reducers at the slow-start threshold.
//
// The structural differences from MRv1 that the paper's Fig. 3 exercises —
// no fixed slot grid, memory-bound concurrency, faster (1 s) allocation
// heartbeats, an AM container consuming resources on one node — are all
// modelled. A job whose task containers no node can hold beside the AM is
// rejected: its AM would otherwise heartbeat forever.
func YARN(js *JobState) (Master, error) {
	slaves := js.Cluster.Slaves()
	conf := js.Spec.Conf
	// NodeManager capacity: explicit conf, else 3/4 of machine RAM — the
	// usual yarn.nodemanager.resource.memory-mb deployment choice.
	defaultMB := int(slaves[0].Spec.MemoryBytes / (1 << 20) * 3 / 4)
	nodeMB := conf.GetInt(mapreduce.ConfNodeMemoryMB, defaultMB)
	am := &appMaster{
		js:     js,
		freeMB: make([]int, len(slaves)),
		sizeMB: [2]int{
			conf.GetInt(mapreduce.ConfMapMemoryMB, defaultMapContainerMB),
			conf.GetInt(mapreduce.ConfReduceMemoryMB, defaultReduceContainerMB),
		},
	}
	for i := range am.freeMB {
		am.freeMB[i] = nodeMB
	}
	// The AM container occupies memory on the first slave.
	am.freeMB[0] -= amContainerMB
	if slices.Max(am.sizeMB[:]) > slices.Max(am.freeMB) {
		return Master{}, fmt.Errorf("yarn: no node can hold a %d MB map and a %d MB reduce container beside the %d MB ApplicationMaster at %s=%d",
			am.sizeMB[mapreduce.TaskMap], am.sizeMB[mapreduce.TaskReduce], amContainerMB, mapreduce.ConfNodeMemoryMB, nodeMB)
	}
	// Client submission + RM accepting the app + AM container spin-up.
	return Master{Name: "appmaster", Setup: js.Model.JobSetup + js.Model.TaskStartup, Assign: am.run}, nil
}

// appMaster owns the YARN policy for one job: it leases containers against
// per-node free memory and assigns tasks round-robin for spread, maps
// first, reducers after slow-start.
type appMaster struct {
	js       *JobState
	freeMB   []int  // per slave (index into Cluster.Slaves())
	sizeMB   [2]int // container size, indexed by mapreduce.TaskType
	nextNode int
}

// run heartbeats until every task has finished, leasing containers for
// pending tasks at each beat.
func (am *appMaster) run(p *sim.Proc) {
	js := am.js
	slowstart := js.slowstartTarget()
	hb := sim.DurationOf(amHeartbeatSeconds)
	for !js.finished && (am.queued() || js.allDone.Count() > 0) {
		// Allocate map containers first (the MR AM requests maps eagerly).
		am.allocate(mapreduce.TaskMap)
		if js.MapsDone >= slowstart {
			am.allocate(mapreduce.TaskReduce)
		}
		if js.allDone.Count() == 0 && !am.queued() {
			break
		}
		p.Sleep(hb)
	}
}

// queued reports whether any task awaits a container.
func (am *appMaster) queued() bool {
	return len(am.js.pending[mapreduce.TaskMap]) > 0 || len(am.js.pending[mapreduce.TaskReduce]) > 0
}

// allocate leases a container for as many pending tasks of type t as fit,
// spreading round-robin across nodes.
func (am *appMaster) allocate(t mapreduce.TaskType) {
	js := am.js
	slaves := js.Cluster.Slaves()
	n := len(slaves)
	sizeMB := am.sizeMB[t]
	for len(js.pending[t]) > 0 {
		// Find a node with room, starting from the round-robin cursor.
		found := -1
		for k := 0; k < n; k++ {
			cand := (am.nextNode + k) % n
			if am.freeMB[cand] >= sizeMB {
				found = cand
				break
			}
		}
		if found < 0 {
			break
		}
		am.nextNode = (found + 1) % n
		am.freeMB[found] -= sizeMB
		idx := js.pending[t][0]
		js.pending[t] = js.pending[t][1:]
		js.launch(t, slaves[found], idx, func() { am.freeMB[found] += sizeMB })
	}
}
