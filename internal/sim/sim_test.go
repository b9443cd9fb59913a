package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(Duration(2*time.Second), func() { got = append(got, "c") })
	e.Schedule(Duration(1*time.Second), func() { got = append(got, "a") })
	e.Schedule(Duration(1*time.Second), func() { got = append(got, "b") })
	end := e.Run()
	if want := "[a b c]"; fmt.Sprint(got) != want {
		t.Errorf("order = %v, want %v", got, want)
	}
	if end != Duration(2*time.Second) {
		t.Errorf("end = %v, want 2s", end)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(Duration(time.Second), func() {
		fired = append(fired, e.Now())
		e.Schedule(Duration(time.Second), func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != Duration(time.Second) || fired[1] != Duration(2*time.Second) {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(time.Duration(i)*time.Second), func() { n++ })
	}
	e.RunUntil(Duration(5 * time.Second))
	if n != 5 {
		t.Errorf("events fired by t=5s: %d, want 5", n)
	}
	if e.Now() != Duration(5*time.Second) {
		t.Errorf("now = %v, want 5s", e.Now())
	}
	e.Run()
	if n != 10 {
		t.Errorf("total events = %d, want 10", n)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(Duration(3 * time.Second))
		wake = p.Now()
	})
	e.Run()
	if wake != Duration(3*time.Second) {
		t.Errorf("woke at %v, want 3s", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var got []string
	step := func(name string, d time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(Duration(d))
			got = append(got, fmt.Sprintf("%s@%v", name, p.Now().Seconds()))
		})
	}
	step("b", 2*time.Second)
	step("a", 1*time.Second)
	step("c", 3*time.Second)
	e.Run()
	want := "[a@1 b@2 c@3]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "slots", 2)
	var order []string
	worker := func(name string, hold time.Duration) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, "start:"+name)
			p.Sleep(Duration(hold))
			r.Release(1)
			order = append(order, "end:"+name)
		})
	}
	worker("w1", 10*time.Second)
	worker("w2", 10*time.Second)
	worker("w3", 10*time.Second) // must wait for a slot
	e.Run()
	// w3's wake is queued behind w2's already-scheduled same-instant event,
	// so both ends at t=10s log before w3 starts.
	want := "[start:w1 start:w2 end:w1 end:w2 start:w3 end:w3]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != Duration(20*time.Second) {
		t.Errorf("end = %v, want 20s", e.Now())
	}
}

func TestResourceLargeRequestBlocksLater(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mem", 4)
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(Duration(10 * time.Second))
		r.Release(3)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(Duration(time.Second)) // arrive second
		r.Acquire(p, 4)
		order = append(order, "big")
		r.Release(4)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(Duration(2 * time.Second)) // arrive third; 1 unit IS free, but FIFO forbids overtaking
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if want := "[big small]"; fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v (no overtaking)", order, want)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 2)
	e.Go("u", func(p *Proc) {
		r.Use(p, 1, Duration(10*time.Second))
	})
	e.Run()
	// 1 unit busy for 10s of a 2-capacity resource => integral = 10e9 unit-ns.
	got := r.BusyIntegral()
	want := 10 * float64(time.Second)
	if got != want {
		t.Errorf("busy integral = %v, want %v", got, want)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	doneAt := Time(-1)
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Duration(time.Duration(i) * time.Second))
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != Duration(3*time.Second) {
		t.Errorf("waiter released at %v, want 3s", doneAt)
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var got interface{}
	var at Time
	e.Go("waiter", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	e.Go("setter", func(p *Proc) {
		p.Sleep(Duration(5 * time.Second))
		f.Set("value")
	})
	e.Run()
	if got != "value" || at != Duration(5*time.Second) {
		t.Errorf("got %v at %v", got, at)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	released := 0
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			released++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(Duration(time.Second))
		c.Broadcast()
	})
	e.Run()
	if released != 4 {
		t.Errorf("released = %d, want 4", released)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		r := NewResource(e, "res", 3)
		ready := NewCond()
		var done []int
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(time.Duration(i%3) * time.Second))
				r.Acquire(p, 1)
				p.Sleep(Duration(time.Duration(1+i%2) * time.Second))
				r.Release(1)
				done = append(done, i)
				ready.Broadcast()
				log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
			})
		}
		e.Go("drain", func(p *Proc) {
			for n := 0; n < 8; n++ {
				for len(done) <= n {
					ready.Wait(p)
				}
				log = append(log, fmt.Sprintf("got%v", done[n]))
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("runs differ:\n%v\n%v", a, b)
	}
}

// wantGoroutines fails the test if more than n goroutines are left: a process
// is a coroutine, and one that outlives Run is a leak. (Fewer is the previous
// test's runner, which can still be exiting when n is sampled.)
func wantGoroutines(t *testing.T, n int) {
	t.Helper()
	if got := runtime.NumGoroutine(); got > n {
		t.Errorf("%d goroutines after Run, %d before the engine was built", got, n)
	}
}

func TestDeadlockPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		// The panic must name the stuck processes, not just count them —
		// that is what makes a hung sweep point debuggable.
		msg := fmt.Sprint(r)
		for _, want := range []string{"2 process(es)", "stuck-a", "stuck-b"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock panic %q missing %q", msg, want)
			}
		}
		// A recovered deadlock leaves nothing behind: both processes were
		// unwound through their deferred calls before the panic left Run.
		if unwound != 2 {
			t.Errorf("%d of 2 stuck processes ran their deferred calls", unwound)
		}
		wantGoroutines(t, before)
	}()
	e := NewEngine()
	f := NewFuture()
	stuck := func(p *Proc) {
		defer func() { unwound++ }()
		f.Wait(p)
		t.Errorf("%s resumed past a future nobody set", p.Name())
	}
	e.Go("stuck-a", stuck)
	e.Go("stuck-b", stuck)
	e.Run()
}

// TestRunLeavesNoGoroutines spawns a few hundred short-lived processes, half
// of them from inside other processes, and holds an ordinary Run to the same
// floor as a recovered one.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	finished := 0
	for i := 0; i < 150; i++ {
		i := i
		e.Go(fmt.Sprintf("parent%d", i), func(p *Proc) {
			p.Sleep(Time(i % 7))
			handoff := NewFuture()
			e.Go(fmt.Sprintf("child%d", i), func(c *Proc) {
				handoff.Wait(c)
				finished++
			})
			p.Yield()
			handoff.Set(i)
			finished++
		})
	}
	e.Run()
	if finished != 300 {
		t.Errorf("%d of 300 processes finished", finished)
	}
	wantGoroutines(t, before)
}

//go:noinline
func explodeInnermost(what string) { panic(what) }

//go:noinline
func explodeMiddle(what string) { explodeInnermost(what) }

//go:noinline
func explodeOuter(what string) { explodeMiddle(what) }

// TestProcPanicKeepsContext: a panic inside a process resurfaces on the
// goroutine that called Run — where a caller can recover it — and says which
// process panicked and where, which the engine-side traceback cannot.
func TestProcPanicKeepsContext(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := false
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the process's panic to reach Run's caller")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{`"fetcher-7"`, "segment 12 is corrupt", "explodeInnermost"} {
			if !strings.Contains(msg, want) {
				t.Errorf("process panic missing %q:\n%s", want, msg)
			}
		}
		if !unwound {
			t.Error("the bystander process was not unwound")
		}
		wantGoroutines(t, before)
	}()
	e := NewEngine()
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		NewFuture().Wait(p)
	})
	e.Go("fetcher-7", func(p *Proc) {
		p.Sleep(1)
		// Spawned and never dispatched: stopping it must not run it.
		e.Go("unstarted", func(p *Proc) { t.Error("ran after the panic") })
		explodeOuter("segment 12 is corrupt")
	})
	e.Run()
}

// TestProcSwitchAllocatesNothing extends the warm-path allocation guards to
// the kernel: neither a timed sleep's round trip through the engine nor a
// Cond hand-off to a parked waiter allocates once the event heap and the
// Cond's waiter list have grown.
func TestProcSwitchAllocatesNothing(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	e.Go("waiter", func(p *Proc) {
		for !stop {
			c.Wait(p)
		}
	})
	if got := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + 1) }); got != 0 {
		t.Errorf("a warm Sleep round trip allocates %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		c.Broadcast()
		e.RunUntil(e.Now())
	}); got != 0 {
		t.Errorf("a warm Cond hand-off allocates %.0f objects, want 0", got)
	}
	stop = true
	c.Broadcast()
	e.Run()
}

func TestEventInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for event in the past")
		}
	}()
	e := NewEngine()
	e.Schedule(Duration(time.Second), func() {
		e.at(0, func() {}) // directly forge a past event
	})
	e.Run()
}

func TestTimeHelpers(t *testing.T) {
	if DurationOf(1.5) != Duration(1500*time.Millisecond) {
		t.Error("DurationOf mismatch")
	}
	if got := Duration(2500 * time.Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v", got)
	}
	if Duration(time.Second).String() != "1s" {
		t.Errorf("String = %q", Duration(time.Second).String())
	}
}
