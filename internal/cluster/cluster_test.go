package cluster

import (
	"math"
	"testing"
	"time"

	"mrmicro/internal/netsim"
	"mrmicro/internal/sim"
)

func TestClusterShape(t *testing.T) {
	e := sim.NewEngine()
	c := ClusterA(e, 4, netsim.OneGigE)
	if c.Size() != 5 {
		t.Errorf("size = %d, want 5 (master + 4 slaves)", c.Size())
	}
	if len(c.Slaves()) != 4 {
		t.Errorf("slaves = %d, want 4", len(c.Slaves()))
	}
	if c.Master().Index != 0 {
		t.Error("master must be node 0")
	}
	if c.Node(1).Spec.Cores != 8 {
		t.Errorf("cluster A cores = %d, want 8", c.Node(1).Spec.Cores)
	}
	b := ClusterB(e, 8, netsim.IPoIBFDR56)
	if b.Node(1).Spec.Cores != 16 {
		t.Errorf("cluster B cores = %d, want 16", b.Node(1).Spec.Cores)
	}
	if b.Node(1).Spec.Disks != 1 || c.Node(1).Spec.Disks != 2 {
		t.Error("disk counts should be 1 (B) and 2 (A)")
	}
}

func TestComputeScalesWithSpeedFactor(t *testing.T) {
	e := sim.NewEngine()
	spec := WestmereSpec
	spec.SpeedFactor = 2.0
	c := New(e, "fast", spec, 1, netsim.OneGigE)
	var end sim.Time
	e.Go("w", func(p *sim.Proc) {
		c.Node(1).Compute(p, 10) // 10 core-seconds at 2x speed => 5s
		end = p.Now()
	})
	e.Run()
	if end.Seconds() != 5 {
		t.Errorf("compute took %v, want 5s", end.Seconds())
	}
}

func TestComputeCoreContention(t *testing.T) {
	e := sim.NewEngine()
	spec := NodeSpec{Cores: 1, SpeedFactor: 1, MemoryBytes: 1 << 30, Disks: 1, DiskSpec: WestmereSpec.DiskSpec}
	c := New(e, "tiny", spec, 1, netsim.OneGigE)
	var ends []float64
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *sim.Proc) {
			c.Node(1).Compute(p, 3)
			ends = append(ends, p.Now().Seconds())
		})
	}
	e.Run()
	if len(ends) != 2 || ends[0] != 3 || ends[1] != 6 {
		t.Errorf("ends = %v, want [3 6] on a single core", ends)
	}
}

func TestTransferChargesProtocolCPU(t *testing.T) {
	// With a profile costing 1e-9 core-sec/byte on each side, moving 1 GB
	// should consume ~1 core-second on sender and receiver.
	prof := netsim.Profile{
		Name: "t", Bandwidth: 1e9,
		SenderCPUPerByte: 1e-9, ReceiverCPUPerByte: 1e-9,
	}
	e := sim.NewEngine()
	c := New(e, "c", WestmereSpec, 2, prof)
	e.Go("x", func(p *sim.Proc) {
		c.Transfer(p, 1, 2, 1e9)
	})
	e.Run()
	senderBusy := c.Node(1).CPU.BusyIntegral() / float64(time.Second)
	recvBusy := c.Node(2).CPU.BusyIntegral() / float64(time.Second)
	if math.Abs(senderBusy-1) > 0.01 || math.Abs(recvBusy-1) > 0.01 {
		t.Errorf("protocol CPU = %v/%v core-sec, want ~1 each", senderBusy, recvBusy)
	}
}

func TestTransferRDMAChargesNoCPU(t *testing.T) {
	e := sim.NewEngine()
	c := ClusterB(e, 2, netsim.RDMAFDR56)
	e.Go("x", func(p *sim.Proc) {
		c.Transfer(p, 1, 2, 1e9)
	})
	e.Run()
	if busy := c.Node(1).CPU.BusyIntegral(); busy != 0 {
		t.Errorf("RDMA sender CPU = %v, want 0", busy)
	}
}

func TestLocalTransferNoCPUOrFabric(t *testing.T) {
	e := sim.NewEngine()
	c := ClusterA(e, 2, netsim.OneGigE)
	e.Go("x", func(p *sim.Proc) { c.Transfer(p, 1, 1, 1e6) })
	e.Run()
	if busy := c.Node(1).CPU.BusyIntegral(); busy != 0 {
		t.Errorf("local transfer burned CPU: %v", busy)
	}
}

func TestMonitorCPUSamples(t *testing.T) {
	e := sim.NewEngine()
	c := ClusterA(e, 1, netsim.OneGigE)
	m := StartMonitor(c, sim.Duration(time.Second))
	e.Go("worker", func(p *sim.Proc) {
		// Occupy 4 of 8 cores for 10 s via 4 parallel computes.
		for i := 0; i < 4; i++ {
			e.Go("c", func(q *sim.Proc) { c.Node(1).Compute(q, 10) })
		}
		p.Sleep(sim.Duration(10 * time.Second))
		m.Stop()
	})
	e.Run()
	ss := m.NodeSamples(1)
	if len(ss) < 10 {
		t.Fatalf("samples = %d, want >= 10", len(ss))
	}
	// Mid-run samples should read ~50% CPU (4 of 8 cores).
	mid := ss[5]
	if math.Abs(mid.CPUPct-50) > 1 {
		t.Errorf("mid-run CPU = %v%%, want ~50%%", mid.CPUPct)
	}
}

func TestMonitorNetworkSamples(t *testing.T) {
	prof := netsim.Profile{Name: "t", Bandwidth: 100e6} // 100 MB/s
	e := sim.NewEngine()
	c := New(e, "c", WestmereSpec, 2, prof)
	m := StartMonitor(c, sim.Duration(time.Second))
	e.Go("x", func(p *sim.Proc) {
		c.Transfer(p, 1, 2, 1000e6) // 10 s at full rate
		m.Stop()
	})
	e.Run()
	peak := 0.0
	for _, s := range m.NodeSamples(2) {
		peak = math.Max(peak, s.NetRxMBps)
	}
	if math.Abs(peak-100) > 2 {
		t.Errorf("peak rx = %v MB/s, want ~100", peak)
	}
	if tx := m.NodeSamples(1)[3].NetTxMBps; math.Abs(tx-100) > 2 {
		t.Errorf("tx sample = %v MB/s, want ~100", tx)
	}
}

func TestMonitorMeanCPU(t *testing.T) {
	e := sim.NewEngine()
	c := ClusterA(e, 1, netsim.OneGigE)
	m := StartMonitor(c, sim.Duration(time.Second))
	e.Go("w", func(p *sim.Proc) {
		c.Node(1).Compute(p, 80) // 1 core for 80s => 12.5% of 8 cores
		m.Stop()
	})
	e.Run()
	ss := m.NodeSamples(1)
	var sum float64
	for _, s := range ss {
		sum += s.CPUPct
	}
	if mean := sum / float64(len(ss)); math.Abs(mean-12.5) > 1 {
		t.Errorf("mean cpu = %v%%, want ~12.5%%", mean)
	}
}
