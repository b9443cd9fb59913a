package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEventQueue measures raw event throughput: a rolling window of
// pending events where every fired event reschedules itself, keeping the
// heap at a steady-state depth. The depth=48 case matches what a paper-scale
// microbenchmark sweep actually holds pending (~40-60 events); the deeper
// cases probe how the queue scales.
func BenchmarkEventQueue(b *testing.B) {
	for _, window := range []int{48, 512, 4096} {
		b.Run(fmt.Sprintf("depth%d", window), func(b *testing.B) {
			e := NewEngine()
			fired := 0
			budget := b.N
			var tick func()
			tick = func() {
				fired++
				if budget--; budget > 0 {
					// Vary the delay so heap order actually churns.
					e.Schedule(Time(1+fired%7), tick)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < window && i < b.N; i++ {
				e.Schedule(Time(i%13), tick)
			}
			e.Run()
			b.StopTimer()
			b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkSchedule measures the enqueue path alone (heap push + event
// bookkeeping), draining once at the end.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%97), fn)
	}
	e.Run()
}

// BenchmarkProcSwitch measures the full process context-switch protocol:
// one process sleeping in a tight loop, so every iteration is a
// yield-to-engine plus a resume: two coroutine switches.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Time(time.Nanosecond))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "switches/sec")
}

// BenchmarkCondPingPong measures two processes handing control back and
// forth through one Cond: the park/unpark path rather than timed sleeps.
func BenchmarkCondPingPong(b *testing.B) {
	e := NewEngine()
	c := NewCond()
	n := 0
	for _, name := range []string{"ping", "pong"} {
		e.Go(name, func(p *Proc) {
			for n < b.N {
				n++
				c.Broadcast()
				c.Wait(p)
			}
			c.Broadcast()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
