package mrsim

import (
	"fmt"

	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/sim"
)

// Engine is a simulated Hadoop runtime bound to one cluster: one job
// master per job, with a Scheduler deciding where and when its tasks run.
type Engine struct {
	Cluster   *cluster.Cluster
	Model     *costmodel.Model
	Scheduler Scheduler
}

// Scheduler is one Hadoop generation's task-assignment policy (MRv1 or
// YARN). Engine.Start calls it once per job, before any simulated time
// passes: it rejects a job the policy could never place and otherwise
// returns the job master's shape.
type Scheduler func(js *JobState) (Master, error)

// Master is what a policy makes of a job's master process.
type Master struct {
	Name  string  // process name under the job's ("jobtracker", "appmaster")
	Setup float64 // seconds from submission until tasks may be assigned
	// Assign runs in the master after setup and assigns the job's tasks,
	// itself or through processes it starts; once it returns, the master
	// waits for every task to finish.
	Assign func(p *sim.Proc)
}

// New creates an engine with the default cost model if model is nil.
func New(c *cluster.Cluster, model *costmodel.Model, s Scheduler) *Engine {
	if model == nil {
		model = costmodel.Default()
	}
	return &Engine{Cluster: c, Model: model, Scheduler: s}
}

// Run starts the job and drives the simulation to completion.
func (e *Engine) Run(spec *JobSpec) (*Report, error) {
	done, err := e.Start(spec)
	if err != nil {
		return nil, err
	}
	e.Cluster.Engine().Run()
	return done.Wait(nil).(*Report), nil
}

// Start submits the job and returns immediately with a future that
// resolves to its *Report; the caller drives the sim engine. Use this form
// to attach monitors or run concurrent jobs.
func (e *Engine) Start(spec *JobSpec) (*sim.Future, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(e.Cluster.Slaves()) == 0 {
		return nil, fmt.Errorf("mrsim: cluster has no slaves")
	}
	js := newJobState(spec, e.Cluster, e.Model)
	m, err := e.Scheduler(js)
	if err != nil {
		return nil, err
	}
	e.Cluster.Engine().Go(spec.Name+"/"+m.Name, func(p *sim.Proc) {
		js.Report.JobStart = p.Now()
		p.Sleep(sim.DurationOf(m.Setup))
		js.allDone.Add(spec.NumMaps() + spec.NumReduces())
		m.Assign(p)
		js.allDone.Wait(p)
		js.cleanupIntermediate()
		p.Sleep(sim.DurationOf(js.Model.JobCleanup))
		js.finish(p.Now())
	})
	return js.done, nil
}

// launch starts an attempt of task idx of type t on node in a process of
// its own. When the attempt ends, release frees what the policy leased for
// it, and a failed attempt goes back on the task's pending queue.
func (js *JobState) launch(t mapreduce.TaskType, node *cluster.Node, idx int, release func()) {
	body, kind := js.runReduceTask, "reduce"
	if t == mapreduce.TaskMap {
		body, kind = js.runMapTask, "map"
		js.mapLoc[idx] = node.Index
	}
	js.Cluster.Engine().Go(fmt.Sprintf("%s/%s%d", js.Spec.Name, kind, idx), func(p *sim.Proc) {
		body(p, node, idx, func(ok bool) {
			release()
			if !ok {
				js.pending[t] = append(js.pending[t], idx)
			}
		})
	})
}
