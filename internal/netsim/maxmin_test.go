package netsim

import (
	"math"
	"math/rand"
	"testing"

	"mrmicro/internal/sim"
)

// referenceMaxMin is an independent, slow water-filling implementation used
// to cross-check the fabric's allocator: progressive filling — raise every
// unfrozen flow's rate uniformly until some link saturates, freeze the
// flows on that link, repeat.
func referenceMaxMin(flows [][2]int, capacity float64) []float64 {
	type link struct {
		cap   float64
		flows []int
	}
	links := map[[2]int]*link{}
	for i, f := range flows {
		out, in := [2]int{f[0], 0}, [2]int{f[1], 1}
		for _, k := range [][2]int{out, in} {
			if links[k] == nil {
				links[k] = &link{cap: capacity}
			}
			links[k].flows = append(links[k].flows, i)
		}
	}
	rates := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	for {
		// Find the smallest uniform increment that saturates some link.
		delta := math.Inf(1)
		for _, l := range links {
			active := 0
			used := 0.0
			for _, fi := range l.flows {
				used += rates[fi]
				if !frozen[fi] {
					active++
				}
			}
			if active == 0 {
				continue
			}
			if d := (l.cap - used) / float64(active); d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			return rates
		}
		for i := range rates {
			if !frozen[i] {
				rates[i] += delta
			}
		}
		// Freeze flows on saturated links.
		for _, l := range links {
			used := 0.0
			for _, fi := range l.flows {
				used += rates[fi]
			}
			if used >= l.cap-1e-9 {
				for _, fi := range l.flows {
					frozen[fi] = true
				}
			}
		}
	}
}

func TestAllocatorMatchesReferenceMaxMin(t *testing.T) {
	prof := Profile{Name: "ref", Bandwidth: 1000} // no congestion term
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nodes := rng.Intn(6) + 2
		nflows := rng.Intn(12) + 1
		var flows [][2]int
		for i := 0; i < nflows; i++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			if dst == src {
				dst = (dst + 1) % nodes
			}
			flows = append(flows, [2]int{src, dst})
		}
		want := referenceMaxMin(flows, prof.Bandwidth)

		// Drive the fabric allocator with the same topology.
		f := newStaticFabric(prof, nodes, flows)
		for i, fl := range f.order {
			if math.Abs(fl.rate-want[i]) > 1e-6*prof.Bandwidth {
				t.Fatalf("trial %d: flow %d (%d->%d) rate %.3f, reference %.3f\nflows: %v",
					trial, i, flows[i][0], flows[i][1], fl.rate, want[i], flows)
			}
		}
	}
}

// TestAllocatorMatchesReferenceUnderChurn keeps one fabric alive while flows
// start and finish on overlapping endpoints, and checks every rate against
// the reference after every step: the link table outlives each allocation,
// so state a link kept from an earlier one (its flow list, its active count,
// its place in the scan order) would show as a wrong rate here.
func TestAllocatorMatchesReferenceUnderChurn(t *testing.T) {
	prof := Profile{Name: "ref", Bandwidth: 1000} // no congestion term
	const nodes = 6
	f := &Fabric{profile: prof, n: nodes, counters: make([]Counters, nodes), links: make([]link, 2*nodes)}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 1000; step++ {
		if n := len(f.flows); n == 0 || (n < 14 && rng.Intn(5) < 3) {
			src := rng.Intn(nodes)
			dst := (src + 1 + rng.Intn(nodes-1)) % nodes
			f.flows = append(f.flows, &Flow{Src: src, Dst: dst, Bytes: 1, remaining: 1})
		} else {
			gone := rng.Intn(n)
			f.flows = append(f.flows[:gone], f.flows[gone+1:]...)
		}
		f.reallocate()
		topology := make([][2]int, len(f.flows))
		for i, fl := range f.flows {
			topology[i] = [2]int{fl.Src, fl.Dst}
		}
		want := referenceMaxMin(topology, prof.Bandwidth)
		for i, fl := range f.flows {
			if math.Abs(fl.rate-want[i]) > 1e-6*prof.Bandwidth {
				t.Fatalf("step %d: flow %d (%d->%d) rate %.3f, reference %.3f\nflows: %v",
					step, i, fl.Src, fl.Dst, fl.rate, want[i], topology)
			}
		}
	}
}

// TestWarmFabricAllocatesOnlyFlows: once a fabric has carried its peak load,
// a flow starting or finishing allocates nothing in the allocator — no map,
// no link, no slice growth. What is left per flow is the Flow, its Future and
// the completion timer's closure (one per StartFlow, one per completion that
// leaves flows behind).
func TestWarmFabricAllocatesOnlyFlows(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, Profile{Name: "warm", Bandwidth: 1000, Congestion: 0.1}, 4)
	const flows = 4
	cycle := func() {
		// Overlapping endpoints, distinct sizes: four completions at four
		// times, each but the last re-planning the rest.
		f.StartFlow(0, 1, 1000)
		f.StartFlow(0, 2, 2000)
		f.StartFlow(3, 1, 3000)
		f.StartFlow(3, 2, 4000)
		e.Run()
		if f.ActiveFlows() != 0 {
			t.Fatalf("%d flows still active after Run", f.ActiveFlows())
		}
	}
	cycle()
	const perFlow, timers = 1, 2*flows - 1
	if got := testing.AllocsPerRun(50, cycle); got > flows*perFlow+timers {
		t.Errorf("a warm fabric allocates %.0f objects per %d-flow cycle, want at most %d (one Flow per flow, its Future inside it, %d timer closures)",
			got, flows, flows*perFlow+timers, timers)
	}
}

// staticFabric exposes the allocator without running the clock.
type staticFabric struct {
	order []*Flow
}

func newStaticFabric(prof Profile, nodes int, flows [][2]int) *staticFabric {
	f := &Fabric{
		profile:  prof,
		n:        nodes,
		counters: make([]Counters, nodes),
		links:    make([]link, 2*nodes),
	}
	out := &staticFabric{}
	for _, fl := range flows {
		flow := &Flow{Src: fl[0], Dst: fl[1], Bytes: 1, remaining: 1}
		f.flows = append(f.flows, flow)
		out.order = append(out.order, flow)
	}
	f.reallocate()
	return out
}

func TestAllocatorRatesNeverExceedLinkCapacity(t *testing.T) {
	prof := Profile{Name: "cap", Bandwidth: 100}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nodes := rng.Intn(5) + 2
		nflows := rng.Intn(15) + 1
		var flows [][2]int
		for i := 0; i < nflows; i++ {
			src := rng.Intn(nodes)
			dst := (src + 1 + rng.Intn(nodes-1)) % nodes
			flows = append(flows, [2]int{src, dst})
		}
		f := newStaticFabric(prof, nodes, flows)
		egress := map[int]float64{}
		ingress := map[int]float64{}
		for i, fl := range f.order {
			if fl.rate < -1e-9 {
				t.Fatalf("negative rate %v", fl.rate)
			}
			egress[flows[i][0]] += fl.rate
			ingress[flows[i][1]] += fl.rate
		}
		for n, v := range egress {
			if v > prof.Bandwidth+1e-6 {
				t.Fatalf("trial %d: egress %d oversubscribed: %.3f", trial, n, v)
			}
		}
		for n, v := range ingress {
			if v > prof.Bandwidth+1e-6 {
				t.Fatalf("trial %d: ingress %d oversubscribed: %.3f", trial, n, v)
			}
		}
	}
}

func TestAllocatorWorkConserving(t *testing.T) {
	// Max-min is work-conserving: every flow is bottlenecked somewhere
	// (its rate cannot be raised without exceeding a saturated link).
	prof := Profile{Name: "wc", Bandwidth: 100}
	flows := [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}, {1, 0}}
	f := newStaticFabric(prof, 4, flows)
	egress := map[int]float64{}
	ingress := map[int]float64{}
	for i, fl := range f.order {
		egress[flows[i][0]] += fl.rate
		ingress[flows[i][1]] += fl.rate
	}
	for i, fl := range f.order {
		outSat := egress[flows[i][0]] >= prof.Bandwidth-1e-6
		inSat := ingress[flows[i][1]] >= prof.Bandwidth-1e-6
		if !outSat && !inSat {
			t.Errorf("flow %d (rate %.1f) touches no saturated link", i, fl.rate)
		}
	}
}
