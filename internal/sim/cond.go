package sim

// Cond is a broadcast condition: processes Wait on it and are all released by
// Broadcast. Unlike sync.Cond there is no associated lock (the simulation is
// single-threaded); the usual pattern is `for !pred() { cond.Wait(p) }`.
type Cond struct {
	waiters []*Proc
}

// NewCond returns an empty condition.
func NewCond() *Cond { return &Cond{} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every waiting process (in wait order). A woken process
// runs only after Broadcast returns, so the list keeps its backing array: a
// steady hand-off through a Cond allocates nothing.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.unpark()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// WaitGroup counts outstanding activities; Wait blocks until the count
// reaches zero.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add increments the counter by delta (may be negative via Done).
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Count returns the current counter value.
func (w *WaitGroup) Count() int { return w.n }

// Wait parks p until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.cond.Wait(p)
	}
}

// Future is a one-shot value that processes can wait for.
type Future struct {
	done bool
	val  interface{}
	cond Cond
}

// NewFuture returns an unresolved future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has been resolved.
func (f *Future) Done() bool { return f.done }

// Set resolves the future and wakes all waiters. Setting twice panics.
func (f *Future) Set(v interface{}) {
	if f.done {
		panic("sim: future set twice")
	}
	f.done = true
	f.val = v
	f.cond.Broadcast()
}

// Wait parks p until the future resolves, then returns its value.
func (f *Future) Wait(p *Proc) interface{} {
	for !f.done {
		f.cond.Wait(p)
	}
	return f.val
}
