// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// An Engine advances a virtual clock through a totally ordered event queue.
// Simulated activities are written as ordinary Go functions running in
// processes (Proc); the engine runs exactly one process at a time, each a
// coroutine (iter.Pull) it switches to and from directly, so simulations are
// sequential and reproducible even though they are written in a natural
// blocking style. A panic inside a process surfaces on Run's caller, its
// message carrying the process's name and stack.
//
// Events scheduled for the same instant fire in scheduling order (a strictly
// increasing sequence number breaks ties), which makes every run with the
// same inputs bit-for-bit identical.
package sim

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so model
// code can use time.Duration literals for intervals.
type Time int64

// Duration converts a time.Duration to the engine's tick unit.
func Duration(d time.Duration) Time { return Time(d) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// DurationOf converts seconds to a Time interval.
func DurationOf(seconds float64) Time { return Time(seconds * float64(time.Second)) }

// The event queue stores keys and payloads in parallel slices: eventKey is
// the 16-byte (time, sequence) ordering key the sift loops compare, eventVal
// the payload they carry along. Exactly one of fn and proc is set: fn for
// plain scheduled callbacks, proc for process resumptions (the hot path —
// storing the Proc directly avoids allocating a closure per context switch).
//
// Events are stored by value, so the only allocation the queue ever performs
// is amortized slice growth; the backing arrays are the event pool, reused
// across every Schedule/Run cycle of the engine. Keeping keys separate means
// the compare-heavy sift-down walks a dense array where four sibling keys
// span a single cache line.
type eventKey struct {
	at  Time
	seq int64
}

type eventVal struct {
	fn   func()
	proc *Proc
}

// keyLess orders events by (time, scheduling sequence). The strictly
// increasing seq makes the order total, so runs are bit-for-bit identical.
//
// The comparison is branchless: (at, seq) is treated as one unsigned 128-bit
// key (sign-biased so signed time order is preserved) and compared with a
// borrow chain. The heap's child scans are data-dependent, so a compare-
// and-branch mispredicts roughly half the time; borrow arithmetic plus a
// conditional move keeps the pipeline full.
func keyLess(a, b eventKey) bool {
	_, borrow := bits.Sub64(uint64(a.seq), uint64(b.seq), 0)
	_, borrow = bits.Sub64(uint64(a.at)^signBit, uint64(b.at)^signBit, borrow)
	return borrow != 0
}

const signBit = 1 << 63

// Engine is a discrete-event simulator instance. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now  Time
	seq  int64
	keys []eventKey // hand-rolled 4-ary min-heap; keys[i] pairs with vals[i]
	vals []eventVal
	// hole is true while the run loop is executing the root event's handler:
	// the root slot is logically vacant, and the handler's first push fills
	// it by sifting down from the root (the DES "replace-top" fast path —
	// most handlers schedule exactly one follow-up event, which fuses the
	// pop's sift-down and the push's sift-up into a single sift).
	hole  bool
	procs []*Proc // live processes, in spawn order (deadlock diagnostics)
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at now+d. fn runs in event context: it must
// not block (use Go for blocking activities). Negative delays are treated as
// zero.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.at(e.now+d, fn)
}

func (e *Engine) at(t Time, fn func()) {
	e.seq++
	e.push(eventKey{at: t, seq: e.seq}, eventVal{fn: fn})
}

// scheduleProc enqueues a resumption of p at now+d without allocating a
// closure. It is the fast path behind Sleep, unpark and dispatch.
func (e *Engine) scheduleProc(d Time, p *Proc) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.push(eventKey{at: e.now + d, seq: e.seq}, eventVal{proc: p})
}

// push inserts an event, sifting it up with a hole (one copy per level
// instead of a swap). The heap is hand-rolled in the same style as kvbuf's
// merge heap: container/heap's interface dispatch and per-event heap
// allocation dominate the kernel's hot loop, and the queue only ever needs
// push and pop-min.
//
// The heap is 4-ary rather than binary: sift paths are half as deep, and the
// four children of a node sit in adjacent slots, so a pop's child scan walks
// one or two cache lines instead of chasing spread-out binary children. For
// event-queue workloads (push shallow, pop to the bottom) this trade is a
// consistent win.
func (e *Engine) push(k eventKey, v eventVal) {
	if e.hole {
		// Replace-top: the root was just consumed; the new event takes its
		// place with one sift-down instead of a full pop plus a sift-up.
		e.hole = false
		siftDown(e.keys, e.vals, k, v)
		return
	}
	ks := append(e.keys, k)
	vs := append(e.vals, v)
	i := len(ks) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !keyLess(k, ks[parent]) {
			break
		}
		ks[i], vs[i] = ks[parent], vs[parent]
		i = parent
	}
	ks[i], vs[i] = k, v
	e.keys, e.vals = ks, vs
}

// siftDown places (k, v) into the vacant root slot of the heap spanning
// ks/vs, restoring heap order.
func siftDown(ks []eventKey, vs []eventVal, k eventKey, v eventVal) {
	n := len(ks)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if keyLess(ks[c], ks[best]) {
				best = c
			}
		}
		if !keyLess(ks[best], k) {
			break
		}
		ks[i], vs[i] = ks[best], vs[best]
		i = best
	}
	ks[i], vs[i] = k, v
}

// settle completes a pending root removal: if the handler did not push a
// replacement into the hole, the heap's last event moves up. The vacated
// tail slot is zeroed so popped closures and processes stay collectable
// while the backing arrays are retained as the pool.
func (e *Engine) settle() {
	if !e.hole {
		return
	}
	e.hole = false
	ks, vs := e.keys, e.vals
	n := len(ks) - 1
	lastK, lastV := ks[n], vs[n]
	vs[n] = eventVal{}
	ks, vs = ks[:n], vs[:n]
	e.keys, e.vals = ks, vs
	if n > 0 {
		siftDown(ks, vs, lastK, lastV)
	}
}

// Run processes events until none remain. It returns the final clock value.
// It panics if a process is still blocked when the event queue drains (a
// deadlock in the model), listing the stuck processes. However Run ends —
// return, deadlock, a process's panic — no process outlives it.
func (e *Engine) Run() Time {
	defer e.stopProcs()
	e.run(-1)
	if n := len(e.procs); n > 0 {
		names := make([]string, n)
		for i, p := range e.procs {
			names[i] = p.name
		}
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at %v: %s",
			n, e.now, strings.Join(names, ", ")))
	}
	return e.now
}

// RunUntil processes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.run(t)
	if e.now < t {
		e.now = t
	}
}

func (e *Engine) run(limit Time) {
	for len(e.keys) > 0 {
		if limit >= 0 && e.keys[0].at > limit {
			return
		}
		k, v := e.keys[0], e.vals[0]
		if k.at < e.now {
			panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", k.at, e.now))
		}
		e.now = k.at
		e.hole = true
		if v.proc != nil {
			v.proc.next() // runs the process until it suspends or finishes
		} else {
			v.fn()
		}
		e.settle()
	}
}

// stopProcs unwinds every live process: each one's pending yield reports
// the stop and the process panics its way out (see stopped), so a Run that
// ends in a panic leaves no coroutine behind. After a Run that returns there
// is none left to stop.
func (e *Engine) stopProcs() {
	procs := e.procs
	e.procs = nil
	for _, p := range procs {
		p.stop()
	}
}

// addProc registers p for deadlock diagnostics and for stopProcs.
func (e *Engine) addProc(p *Proc) { e.procs = append(e.procs, p) }

// removeProc drops p, preserving spawn order for deterministic messages.
func (e *Engine) removeProc(p *Proc) {
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			return
		}
	}
}
