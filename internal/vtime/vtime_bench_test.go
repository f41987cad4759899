package vtime

import (
	"fmt"
	"testing"
)

// populate arms n resident background timers, spread over a wide window
// far enough out that no benchmark loop advances into them.
func populate(c *Clock, n int) {
	const base = Duration(1) << 50
	for i := 0; i < n; i++ {
		c.ScheduleAfter(base+Duration(i*7919), nil)
	}
}

// BenchmarkArmCancelLoaded measures arm+cancel cost against a resident
// timer population. The acceptance bar for the wheel is flat ns/op from
// 1k to 100k armed timers (the heap was O(log n) here) at 0 allocs/op.
func BenchmarkArmCancelLoaded(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := NewClock()
			populate(c, n)
			// Warm the pool so the measured loop is steady-state.
			c.Cancel(c.ScheduleAfter(100, nil))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := c.ScheduleAfter(100, nil)
				c.Cancel(id)
			}
		})
	}
}

// BenchmarkScheduleFireLoaded measures the full arm/advance/fire cycle
// against a resident population — the quantum-timer pattern of the core
// kernel with n threads asleep.
func BenchmarkScheduleFireLoaded(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := NewClock()
			populate(c, n)
			c.Cancel(c.ScheduleAfter(100, nil))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ScheduleAfter(1, nil)
				c.Advance(1)
				c.PopDue()
			}
			b.StopTimer()
			if c.Pending() != n {
				b.Fatalf("population drifted: %d", c.Pending())
			}
		})
	}
}

// BenchmarkNextExpiryLoaded measures the expiry query against a resident
// population; the memo must keep it O(1) even when the earliest region is
// a populous coarse slot.
func BenchmarkNextExpiryLoaded(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := NewClock()
			populate(c, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.NextExpiry()
			}
		})
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	c := NewClock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.ScheduleAfter(100, nil)
		c.Cancel(id)
	}
}

func BenchmarkSchedulePopDue(b *testing.B) {
	c := NewClock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScheduleAfter(1, nil)
		c.Advance(1)
		c.PopDue()
	}
}

func BenchmarkStepNoTimers(b *testing.B) {
	c := NewClock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(10)
	}
}

func BenchmarkStepWithFarTimer(b *testing.B) {
	c := NewClock()
	c.ScheduleAt(Infinity-1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(10)
	}
}

// BenchmarkNextExpiryEmpty measures the expiry query on a clock with no
// armed timer whose anchor lags a moving clock — the shape of a parked
// fabric host polled at every grant. It must be O(1) at 0 allocs/op.
func BenchmarkNextExpiryEmpty(b *testing.B) {
	c := NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Advance(1 << 20)
		_, expirySink = c.NextExpiry()
	}
	if expirySink {
		b.Fatal("empty clock reported a timer")
	}
}

// expirySink keeps the measured NextExpiry call from being optimized away.
var expirySink bool
