package microbench

import (
	"fmt"

	"mrmicro/internal/cluster"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/mrsim"
	"mrmicro/internal/mrv1"
	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
	"mrmicro/internal/yarn"
)

// Result is one micro-benchmark execution: the paper's reported output —
// configuration echo, job execution time, and resource-utilization
// statistics.
type Result struct {
	Config Config
	Report *mrsim.Report

	// Per-slave utilization timelines (nil without monitoring).
	Samples [][]cluster.Sample

	ShuffleBytes int64
}

// JobSeconds is the headline metric, the paper's "Job Execution Time".
func (r *Result) JobSeconds() float64 { return r.Report.ExecutionSeconds() }

// PeakRxMBps returns the highest per-sample receive throughput across
// slaves (Fig. 7(b)'s peak bandwidth).
func (r *Result) PeakRxMBps() float64 {
	peak := 0.0
	for _, node := range r.Samples {
		for _, s := range node {
			if s.NetRxMBps > peak {
				peak = s.NetRxMBps
			}
		}
	}
	return peak
}

// MeanCPUPct returns the average CPU utilization over all slaves' samples.
func (r *Result) MeanCPUPct() float64 {
	var sum float64
	var n int
	for _, node := range r.Samples {
		for _, s := range node {
			sum += s.CPUPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run executes one micro-benchmark on a fresh simulated cluster: a Sweep of
// one point.
func Run(cfg Config) (*Result, error) {
	return new(Sweep).Run(cfg)
}

// Run executes one point of the sweep on a fresh simulated cluster.
func (s *Sweep) Run(cfg Config) (*Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Engine == EngineDist {
		return nil, fmt.Errorf("microbench: engine %q is the real multi-process runtime, not a simulated generation; run it via mrbench -engine=dist (internal/distrun)", cfg.Engine)
	}
	spec, err := s.spec(cfg)
	if err != nil {
		return nil, err
	}
	if err := spec.Conf.Resolve(func() error { return readSimKeys(spec.Conf) }); err != nil {
		return nil, err
	}

	profile, _ := netsim.ProfileByName(cfg.Network)
	eng := sim.NewEngine()
	var cl *cluster.Cluster
	switch cfg.Cluster {
	case ClusterA:
		cl = cluster.ClusterA(eng, cfg.Slaves, profile)
	case ClusterB:
		cl = cluster.ClusterB(eng, cfg.Slaves, profile)
	}

	model := cfg.Model
	if model == nil {
		model = costmodel.Default()
	}
	var running interface{ done() *sim.Future }
	switch cfg.Engine {
	case EngineMRv1:
		rj, err := mrv1.New(cl, model).Start(spec)
		if err != nil {
			return nil, err
		}
		running = mrv1Job{rj}
	case EngineYARN:
		rj, err := yarn.New(cl, model).Start(spec)
		if err != nil {
			return nil, err
		}
		running = yarnJob{rj}
	default:
		return nil, fmt.Errorf("microbench: unknown engine %q", cfg.Engine)
	}

	var mon *cluster.Monitor
	if cfg.MonitorInterval > 0 {
		mon = cluster.StartMonitor(cl, sim.Duration(cfg.MonitorInterval))
		eng.Go("monitor-stopper", func(p *sim.Proc) {
			running.done().Wait(p)
			mon.Stop()
		})
	}

	eng.Run()
	report := running.done().Wait(nil).(*mrsim.Report)

	res := &Result{Config: cfg, Report: report, ShuffleBytes: report.ShuffleBytes}
	if mon != nil {
		for _, n := range cl.Slaves() {
			res.Samples = append(res.Samples, mon.NodeSamples(n.Index))
		}
	}
	return res, nil
}

type mrv1Job struct{ rj *mrv1.RunningJob }

func (j mrv1Job) done() *sim.Future { return j.rj.Done }

type yarnJob struct{ rj *yarn.RunningJob }

func (j yarnJob) done() *sim.Future { return j.rj.Done }
