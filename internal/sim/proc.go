package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// with virtual time by the engine. All Proc methods must be called from the
// process's own function.
//
// Engine and process strictly alternate — exactly one of them runs at a
// time — and iter.Pull is that contract: the engine resumes the process with
// next, the process hands control back with yield, and each direction is one
// direct coroutine switch that never enters the Go scheduler.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	parked bool
}

// stopped is what a suspended process panics with when the engine abandons
// it (see Engine.stopProcs): it unwinds the process's stack, running its
// deferred calls, and is swallowed by finish.
type stopped struct{}

// Go starts a new process running fn. The process begins executing at the
// current virtual time (after already-queued events for this instant).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.addProc(p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		fn(p)
	})
	e.scheduleProc(0, p)
	return p
}

// finish runs deferred as the process's function returns or unwinds. A
// panic in the process resurfaces from next, on Engine.Run's caller and with
// the engine's stack, so it is re-raised here carrying what that traceback
// no longer shows: the process's name and its own stack.
func (p *Proc) finish() {
	p.eng.removeProc(p)
	switch r := recover().(type) {
	case nil, stopped:
	default:
		panic(fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
	}
}

// suspend hands control back to the engine until the next dispatch.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// park suspends the process until some other activity unparks it.
func (p *Proc) park() {
	p.parked = true
	p.suspend()
}

// unpark schedules the process to resume at the current virtual time.
// Safe to call from event context or from another process.
func (p *Proc) unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: unpark of non-parked process %q", p.name))
	}
	p.parked = false
	p.eng.scheduleProc(0, p)
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d virtual nanoseconds. Negative durations
// sleep zero time but still yield, so same-instant events queued before us
// run in deterministic order.
func (p *Proc) Sleep(d Time) {
	p.eng.scheduleProc(d, p)
	p.suspend()
}

// Yield gives other same-instant events a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
