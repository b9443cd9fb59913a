package netsim

import (
	"fmt"
	"math"

	"mrmicro/internal/sim"
)

// LocalBandwidth is the rate for same-node "transfers" (memory copies that
// never touch the NIC).
const LocalBandwidth = 6e9 // bytes/sec

// Flow is one in-flight transfer between two endpoints.
type Flow struct {
	Src, Dst  int
	Bytes     int64
	remaining float64
	rate      float64 // bytes/sec, set by the allocator
	Done      sim.Future

	// Transient water-filling state, valid only inside reallocate.
	links  [2]*link
	frozen bool
}

// link is one direction of an endpoint's NIC during water-filling. The
// fabric keeps one per endpoint and direction for its lifetime; gen says
// which reallocate call the other fields were last reset in.
type link struct {
	gen      uint64
	residual float64
	flows    []*Flow
	active   int // flows not yet frozen at a fair share
}

// Rate returns the flow's current allocated rate in bytes/sec.
func (fl *Flow) Rate() float64 { return fl.rate }

// Counters accumulates traffic for one endpoint, for utilization sampling.
type Counters struct {
	TxBytes float64
	RxBytes float64
}

// Fabric is a non-blocking switch connecting n endpoints, each with
// full-duplex NIC capacity from the profile. Active flows receive max-min
// fair rates over the egress/ingress link constraints; rates are recomputed
// whenever a flow starts or finishes.
type Fabric struct {
	eng     *sim.Engine
	profile Profile
	n       int

	// flows holds active flows in start order. Iteration order is load-
	// bearing: rate allocation, counter accumulation, and completion all
	// walk this slice, so keeping it deterministic (never a pointer-keyed
	// map, whose order varies with allocation addresses) is what makes
	// simulation results reproducible regardless of process history.
	flows    []*Flow
	counters []Counters
	lastSync sim.Time
	timerGen int // invalidates stale completion timers

	// Water-filling scratch, reused by every reallocate so that a flow
	// starting or finishing allocates nothing: the link table, indexed
	// 2*endpoint+dir (dir 0 = egress, 1 = ingress); the links the current
	// allocation touches, in first-use order; and the generation that tells
	// a link touched now from one left over from an earlier call.
	links   []link
	order   []*link
	linkGen uint64
	done    []*Flow // complete's batch of finished flows
}

// NewFabric creates a fabric with n endpoints (numbered 0..n-1).
func NewFabric(e *sim.Engine, profile Profile, n int) *Fabric {
	if n <= 0 {
		panic("netsim: fabric needs at least one endpoint")
	}
	return &Fabric{
		eng:      e,
		profile:  profile,
		n:        n,
		counters: make([]Counters, n),
		lastSync: e.Now(),
		links:    make([]link, 2*n),
		order:    make([]*link, 0, 2*n),
	}
}

// Profile returns the fabric's interconnect profile.
func (f *Fabric) Profile() Profile { return f.profile }

// NodeCounters returns a snapshot of endpoint i's cumulative traffic,
// accounted up to the current instant.
func (f *Fabric) NodeCounters(i int) Counters {
	f.sync()
	return f.counters[i]
}

// ActiveFlows returns the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// StartFlow injects a transfer of the given size and returns its Flow; the
// flow's Done future resolves (with nil) when the last byte arrives. Latency
// and setup overhead are NOT included — Transfer adds them; callers using
// StartFlow directly are modelling pipelined streams.
func (f *Fabric) StartFlow(src, dst int, bytes int64) *Flow {
	f.checkEndpoint(src)
	f.checkEndpoint(dst)
	fl := &Flow{Src: src, Dst: dst, Bytes: bytes, remaining: float64(bytes)}
	if src == dst {
		// Same-node copy: constant memory bandwidth, no fabric contention.
		d := sim.DurationOf(float64(bytes) / LocalBandwidth)
		f.eng.Schedule(d, func() { fl.Done.Set(nil) })
		return fl
	}
	if bytes <= 0 {
		fl.Done.Set(nil)
		return fl
	}
	f.sync()
	f.flows = append(f.flows, fl)
	f.reallocate()
	f.reschedule()
	return fl
}

// Transfer performs a complete request/response-style transfer from src to
// dst, blocking p: connection setup, one-way latency, then the payload flow.
func (f *Fabric) Transfer(p *sim.Proc, src, dst int, bytes int64) {
	if src != dst {
		p.Sleep(f.profile.SetupLatency + f.profile.Latency)
	}
	fl := f.StartFlow(src, dst, bytes)
	fl.Done.Wait(p)
}

func (f *Fabric) checkEndpoint(i int) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("netsim: endpoint %d out of range [0,%d)", i, f.n))
	}
}

// sync advances all flows' progress at their current rates up to now and
// credits the traffic counters.
func (f *Fabric) sync() {
	now := f.eng.Now()
	dt := (now - f.lastSync).Seconds()
	if dt <= 0 {
		f.lastSync = now
		return
	}
	for _, fl := range f.flows {
		moved := fl.rate * dt
		if moved > fl.remaining {
			moved = fl.remaining
		}
		fl.remaining -= moved
		f.counters[fl.Src].TxBytes += moved
		f.counters[fl.Dst].RxBytes += moved
	}
	f.lastSync = now
}

// reallocate computes max-min fair rates for all active flows subject to
// per-endpoint egress and ingress capacity (water-filling).
func (f *Fabric) reallocate() {
	if len(f.flows) == 0 {
		return
	}
	f.linkGen++
	f.order = f.order[:0]
	for _, fl := range f.flows {
		out, in := f.link(fl.Src, 0), f.link(fl.Dst, 1)
		out.flows = append(out.flows, fl)
		out.active++
		in.flows = append(in.flows, fl)
		in.active++
		fl.links = [2]*link{out, in}
		fl.frozen = false
	}
	// Incast/contention degradation: a link shared by n flows loses a
	// profile-dependent fraction of its capacity (see Profile.Congestion).
	if c := f.profile.Congestion; c > 0 {
		for _, l := range f.order {
			if n := len(l.flows); n > 1 {
				l.residual *= 1 - c*(1-1/float64(n))
			}
		}
	}
	for remaining := len(f.flows); remaining > 0; {
		// Find the bottleneck link: minimum residual fair share. Ties go to
		// the link used first, so the fill order depends on nothing but the
		// flows' start order.
		minShare := math.Inf(1)
		var bottleneck *link
		for _, l := range f.order {
			if l.active == 0 {
				continue
			}
			share := l.residual / float64(l.active)
			if share < minShare {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every flow on the bottleneck at the fair share.
		for _, fl := range bottleneck.flows {
			if fl.frozen {
				continue
			}
			fl.rate = minShare
			fl.frozen = true
			remaining--
			for _, l := range fl.links {
				if l != bottleneck {
					l.residual -= minShare
					if l.residual < 0 {
						l.residual = 0
					}
				}
				l.active--
			}
		}
		bottleneck.residual = 0
	}
}

// link returns the water-filling state of endpoint ep's NIC in direction dir
// (0 = egress, 1 = ingress), reset at its first use in the current
// reallocate call and appended to f.order then.
func (f *Fabric) link(ep, dir int) *link {
	l := &f.links[2*ep+dir]
	if l.gen != f.linkGen {
		l.gen = f.linkGen
		l.residual = f.profile.Bandwidth
		l.flows = l.flows[:0]
		l.active = 0
		f.order = append(f.order, l)
	}
	return l
}

// reschedule plans the next completion event for the earliest-finishing flow.
func (f *Fabric) reschedule() {
	f.timerGen++
	gen := f.timerGen
	if len(f.flows) == 0 {
		return
	}
	minT := math.Inf(1)
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			continue
		}
		if t := fl.remaining / fl.rate; t < minT {
			minT = t
		}
	}
	if math.IsInf(minT, 1) {
		panic("netsim: active flows with zero allocated rate")
	}
	// +1ns guards against DurationOf truncation firing a hair early, which
	// would leave sub-byte residuals and a zero-delay event loop.
	f.eng.Schedule(sim.DurationOf(minT)+1, func() {
		if gen != f.timerGen {
			return // superseded by a later topology change
		}
		f.complete()
	})
}

// complete finishes all flows whose remaining bytes have drained.
func (f *Fabric) complete() {
	f.sync()
	const eps = 1e-3 // bytes; float drift guard
	done := f.done[:0]
	n := len(f.flows)
	keep := f.flows[:0]
	for _, fl := range f.flows {
		if fl.remaining > eps {
			keep = append(keep, fl)
			continue
		}
		// Credit any residual epsilon so counters conserve bytes exactly.
		f.counters[fl.Src].TxBytes += fl.remaining
		f.counters[fl.Dst].RxBytes += fl.remaining
		fl.remaining = 0
		done = append(done, fl)
	}
	clear(f.flows[len(keep):n])
	f.flows = keep
	if len(f.flows) > 0 {
		f.reallocate()
	}
	f.reschedule()
	// Resolve futures after rates settle so waiters observe a consistent
	// fabric.
	for _, fl := range done {
		fl.Done.Set(nil)
	}
	clear(done)
	f.done = done
}
