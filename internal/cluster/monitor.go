package cluster

import (
	"time"

	"mrmicro/internal/sim"
)

// Sample is one point of a node's resource-utilization timeline, matching
// the paper's Fig. 7 reporting (CPU % and network MB/s per sampling point).
type Sample struct {
	At        sim.Time
	CPUPct    float64 // 0..100, average over the sampling window
	NetRxMBps float64 // received MB/s over the window (the paper's metric)
	NetTxMBps float64
	DiskPct   float64 // spindle busy fraction, 0..100
}

// Monitor samples per-node utilization at a fixed interval, like the
// dstat/sar collection the paper runs alongside each benchmark.
type Monitor struct {
	cluster  *Cluster
	interval sim.Time
	samples  [][]Sample // [node][tick]
	stopped  bool

	lastCPU  []float64
	lastRx   []float64
	lastTx   []float64
	lastDisk []float64
}

// DefaultInterval is the paper-style one-second sampling period.
const DefaultInterval = sim.Time(time.Second)

// StartMonitor begins sampling every interval until Stop is called. It must
// be called before the engine runs the interval's first tick.
func StartMonitor(c *Cluster, interval sim.Time) *Monitor {
	m := &Monitor{
		cluster:  c,
		interval: interval,
		samples:  make([][]Sample, c.Size()),
		lastCPU:  make([]float64, c.Size()),
		lastRx:   make([]float64, c.Size()),
		lastTx:   make([]float64, c.Size()),
		lastDisk: make([]float64, c.Size()),
	}
	for i := range m.lastCPU {
		n := c.Node(i)
		m.lastCPU[i] = n.CPU.BusyIntegral()
		var disk float64
		for _, d := range n.Disks.Disks() {
			disk += d.BusyIntegral()
		}
		m.lastDisk[i] = disk
		cnt := c.Fabric().NodeCounters(i)
		m.lastRx[i], m.lastTx[i] = cnt.RxBytes, cnt.TxBytes
	}
	c.Engine().Go("monitor", func(p *sim.Proc) {
		for !m.stopped {
			p.Sleep(interval)
			m.tick(p.Now())
		}
	})
	return m
}

func (m *Monitor) tick(now sim.Time) {
	winSec := m.interval.Seconds()
	for i := 0; i < m.cluster.Size(); i++ {
		n := m.cluster.Node(i)
		cpu := n.CPU.BusyIntegral()
		var disk float64
		for _, d := range n.Disks.Disks() {
			disk += d.BusyIntegral()
		}
		cnt := m.cluster.Fabric().NodeCounters(i)
		s := Sample{
			At:        now,
			CPUPct:    100 * (cpu - m.lastCPU[i]) / (float64(n.Spec.Cores) * float64(m.interval)),
			DiskPct:   100 * (disk - m.lastDisk[i]) / (float64(n.Spec.Disks) * float64(m.interval)),
			NetRxMBps: (cnt.RxBytes - m.lastRx[i]) / winSec / 1e6,
			NetTxMBps: (cnt.TxBytes - m.lastTx[i]) / winSec / 1e6,
		}
		m.samples[i] = append(m.samples[i], s)
		m.lastCPU[i], m.lastDisk[i] = cpu, disk
		m.lastRx[i], m.lastTx[i] = cnt.RxBytes, cnt.TxBytes
	}
}

// Stop ends sampling after the current interval elapses.
func (m *Monitor) Stop() { m.stopped = true }

// NodeSamples returns node i's timeline.
func (m *Monitor) NodeSamples(i int) []Sample { return m.samples[i] }
