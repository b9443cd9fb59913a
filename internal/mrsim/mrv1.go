package mrsim

import (
	"fmt"

	"mrmicro/internal/cluster"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// MRv1 schedules the Hadoop 1.x way: a JobTracker supervises per-slave
// TaskTrackers that claim pending tasks for their fixed map/reduce slots at
// every heartbeat, reduces gated on slow-start.
func MRv1(js *JobState) (Master, error) {
	jt := &jobTracker{js: js}
	return Master{Name: "jobtracker", Setup: js.Model.JobSetup, Assign: jt.startTrackers}, nil
}

// jobTracker owns the MRv1 policy's job-wide state.
type jobTracker struct {
	js         *JobState
	speculated map[int]bool // maps with a duplicate attempt queued
}

// startTrackers starts one TaskTracker heartbeat loop per slave.
func (jt *jobTracker) startTrackers(*sim.Proc) {
	js := jt.js
	for i, node := range js.Cluster.Slaves() {
		tt := &taskTracker{jt: jt, node: node, slots: [2]int{
			js.Spec.Conf.GetInt(mapreduce.ConfMapSlots, 4),
			js.Spec.Conf.GetInt(mapreduce.ConfReduceSlots, 2),
		}}
		// Stagger first heartbeats so trackers do not beat in lockstep.
		offset := sim.DurationOf(float64(i) * 0.113)
		js.Cluster.Engine().Go(fmt.Sprintf("%s/tt%d", js.Spec.Name, node.Index), func(p *sim.Proc) {
			p.Sleep(offset)
			tt.run(p)
		})
	}
}

// maybeSpeculate launches duplicate attempts for straggling maps when
// mapreduce.map.speculative is on: once half the maps have finished and a
// running map has taken over 1.5x the mean completed-map runtime, a second
// attempt is queued; the first completion wins (Hadoop's LATE-style
// heuristic, simplified).
func (jt *jobTracker) maybeSpeculate(now sim.Time) {
	js := jt.js
	if !js.Spec.Conf.GetBool(mapreduce.ConfSpeculative, false) {
		return
	}
	if js.MapsDone < js.Spec.NumMaps()/2 || js.MapsDone == js.Spec.NumMaps() {
		return
	}
	mean := js.mapRuntimeSum / float64(js.MapsDone)
	for m := 0; m < js.Spec.NumMaps(); m++ {
		if js.mapCompleted[m] || js.mapAttempts[m] != 1 || jt.speculated[m] {
			continue // not running, retried, or already speculated
		}
		if (now - js.mapStarted[m]).Seconds() > 1.5*mean {
			if jt.speculated == nil {
				jt.speculated = make(map[int]bool)
			}
			jt.speculated[m] = true
			js.pending[mapreduce.TaskMap] = append(js.pending[mapreduce.TaskMap], m)
		}
	}
}

// taskTracker is one slave's heartbeat loop: it claims pending tasks for
// its free slots every heartbeat, as Hadoop's TT does.
type taskTracker struct {
	jt          *jobTracker
	node        *cluster.Node
	slots, busy [2]int // indexed by mapreduce.TaskType
}

func (tt *taskTracker) run(p *sim.Proc) {
	js := tt.jt.js
	hb := sim.DurationOf(js.Model.Heartbeat)
	slowstart := js.slowstartTarget()
	for !js.finished {
		tt.jt.maybeSpeculate(p.Now())
		tt.claim(mapreduce.TaskMap)
		if js.MapsDone >= slowstart {
			tt.claim(mapreduce.TaskReduce)
		}
		p.Sleep(hb)
	}
}

// claim launches pending tasks of type t, oldest first, while one of the
// tracker's slots for t is free.
func (tt *taskTracker) claim(t mapreduce.TaskType) {
	js := tt.jt.js
	for tt.busy[t] < tt.slots[t] && len(js.pending[t]) > 0 {
		idx := js.pending[t][0]
		js.pending[t] = js.pending[t][1:]
		tt.busy[t]++
		js.launch(t, tt.node, idx, func() { tt.busy[t]-- })
	}
}
