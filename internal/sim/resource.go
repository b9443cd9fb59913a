package sim

import "fmt"

// Resource is a counting semaphore with FIFO admission, used to model finite
// capacity such as CPU cores, task slots, or memory. It also integrates
// capacity-in-use over time so callers can derive utilization (busy fraction)
// between two sampling points.
type Resource struct {
	eng      *Engine
	name     string
	capacity int64
	inUse    int64

	waiters []*resWaiter

	lastChange Time
	busyNs     float64 // integral of inUse over time, in unit*ns
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(e *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive, got %d", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity, lastChange: e.now}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

func (r *Resource) accumulate() {
	now := r.eng.now
	r.busyNs += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

// BusyIntegral returns the integral of capacity-in-use over time in
// unit-nanoseconds since the start of the simulation. Utilization over a
// window is (delta integral) / (capacity * window).
func (r *Resource) BusyIntegral() float64 {
	r.accumulate()
	return r.busyNs
}

// Acquire blocks p until n units are available and takes them. Requests are
// granted strictly in FIFO order: a large request at the head of the queue
// blocks later small ones (no starvation).
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: acquire of %d from %q", n, r.name))
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire of %d exceeds capacity %d of %q", n, r.capacity, r.name))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	p.park()
}

// TryAcquire takes n units if immediately available (and no earlier waiter
// is queued), reporting whether it succeeded.
func (r *Resource) TryAcquire(n int64) bool {
	if n <= 0 || n > r.capacity {
		return false
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and wakes as many queued waiters as now fit.
func (r *Resource) Release(n int64) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release of %d with %d in use on %q", n, r.inUse, r.name))
	}
	r.accumulate()
	r.inUse -= n
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.p.unpark()
	}
}

// Use acquires n units, runs the process for d virtual time, and releases.
// It is the common "compute for d holding one core" idiom.
func (r *Resource) Use(p *Proc, n int64, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
