package sim

// Queue is an unbounded FIFO channel between simulated processes. Get blocks
// until an item is available; Put never blocks. Close wakes all blocked
// getters with ok=false once drained.
//
// Both lists keep their backing arrays as they drain, so a steady hand-off
// between a putter and a blocked getter allocates nothing.
type Queue struct {
	eng     *Engine
	items   []interface{} // items[:head] are consumed
	head    int
	getters []*Proc
	closed  bool
}

// NewQueue creates an empty queue on e.
func NewQueue(e *Engine) *Queue { return &Queue{eng: e} }

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Put appends an item and wakes one blocked getter, if any.
func (q *Queue) Put(v interface{}) {
	if q.closed {
		panic("sim: put on closed queue")
	}
	if q.head > len(q.items)/2 && len(q.items) == cap(q.items) {
		// Reclaim the consumed half rather than grow past it.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.wakeOne()
}

// Close marks the queue closed. Buffered items are still delivered; once the
// queue drains, blocked and future Gets return ok=false.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, g := range q.getters {
		g.unpark()
	}
	q.getters = q.getters[:0]
}

func (q *Queue) wakeOne() {
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = append(q.getters[:0], q.getters[1:]...) // a handful of consumers at most
		g.unpark()
	}
}

// Get removes and returns the head item, blocking p while the queue is empty.
// ok is false only when the queue is closed and drained.
func (q *Queue) Get(p *Proc) (interface{}, bool) {
	for q.Len() == 0 {
		if q.closed {
			return nil, false
		}
		q.getters = append(q.getters, p)
		p.park()
	}
	v := q.items[q.head]
	q.items[q.head] = nil
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

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

// Broadcast wakes every waiting process (in wait order).
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.unpark()
	}
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
