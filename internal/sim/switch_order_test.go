package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/switch_order.golden from the current kernel")

// switchOrderLog runs one scripted scenario that crosses every way a
// process gives up or regains control — timed and zero and negative sleeps,
// Yield, spawns from inside processes, Queue put/get/close, Resource.Use
// under FIFO contention, and a Future and a Cond released at instants where
// other events coincide — and returns its (virtual ns, process, step) log.
func switchOrderLog() []byte {
	var buf bytes.Buffer
	e := NewEngine()
	step := func(p *Proc, format string, args ...interface{}) {
		fmt.Fprintf(&buf, "%d %s %s\n", p.Now(), p.Name(), fmt.Sprintf(format, args...))
	}

	q := NewQueue(e)
	cpu := NewResource(e, "cpu", 2)
	fut := NewFuture()
	cond := NewCond()
	var wg WaitGroup

	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("getter%d", i), func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					step(p, "closed")
					return
				}
				step(p, "got %v", v)
				p.Sleep(Time(i)) // getter0 re-queues in the same instant
			}
		})
	}

	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		e.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(Time(i % 2)) // two arrival instants, three contenders each way
			step(p, "arrive")
			cpu.Use(p, int64(1+i%2), 10)
			step(p, "used")
			q.Put(i)
			p.Yield()
			step(p, "yielded")
			wg.Done()
		})
	}

	e.Go("spawner", func(p *Proc) {
		step(p, "start")
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("child%d", i), func(c *Proc) {
				step(c, "born")
				c.Sleep(-5) // negative: zero time, still behind this instant's queue
				step(c, "after negative sleep")
				e.Go(fmt.Sprintf("grandchild%d", i), func(g *Proc) {
					step(g, "born")
					step(g, "future = %v", fut.Wait(g))
					cond.Wait(g)
					step(g, "cond")
				})
				c.Sleep(Time(10 * i))
				step(c, "waiting")
				cond.Wait(c)
				step(c, "cond")
			})
			p.Yield()
			step(p, "spawned %d", i)
		}
		p.Sleep(10) // t=10 is also when the first workers release the cpu
		step(p, "set future")
		fut.Set("v")
		step(p, "future set")
		p.Sleep(10) // t=20: child2 reaches cond.Wait in this instant
		p.Yield()
		step(p, "broadcast 1")
		cond.Broadcast()
		wg.Wait(p)
		step(p, "workers done")
		q.Put("last")
		q.Close()
		cond.Broadcast()
		step(p, "broadcast 2")
	})

	e.Schedule(10, func() { fmt.Fprintf(&buf, "%d - event a\n", e.Now()) })
	e.Schedule(20, func() {
		fmt.Fprintf(&buf, "%d - event b\n", e.Now())
		e.Go("late", func(p *Proc) {
			step(p, "start")
			cpu.Use(p, 2, 0)
			step(p, "used")
		})
	})
	fmt.Fprintf(&buf, "end %d\n", e.Run())
	return buf.Bytes()
}

// TestSwitchOrder holds the kernel's hand-off order to a log captured from
// the channel-gate kernel before the coroutine switch replaced it.
func TestSwitchOrder(t *testing.T) {
	const golden = "testdata/switch_order.golden"
	got := switchOrderLog()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("switch order moved; got:\n%s\nwant:\n%s", got, want)
	}
}
