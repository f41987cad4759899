package vtime

import (
	"math/rand"
	"testing"
)

// TestWheelMatchesHeapProperty cross-checks the hierarchical timer wheel
// against the original binary-heap implementation (refheap_test.go) on
// randomized arm/cancel/advance sequences. Durations are drawn from an
// exponential-ish range so entries land on every wheel level — from
// single-tick level-0 slots to multi-second coarse slots that must
// cascade — and both fire order and fire times must match exactly,
// as must every intermediate NextExpiry report.
func TestWheelMatchesHeapProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewClock()
		r := newRefClock()
		var live []TimerID

		for round := 0; round < 3000; round++ {
			switch rng.Intn(5) {
			case 0, 1: // arm, spanning many wheel levels
				mag := uint(rng.Intn(36)) // up to ~64 s spans
				d := Duration(rng.Int63n(1 << mag))
				id := c.ScheduleAfter(d, round)
				rid := r.ScheduleAfter(d, round)
				if id != rid {
					t.Fatalf("seed %d round %d: wheel id %d != heap id %d", seed, round, id, rid)
				}
				live = append(live, id)
			case 2: // cancel a random earlier timer (possibly already fired)
				if len(live) == 0 {
					continue
				}
				id := live[rng.Intn(len(live))]
				if got, want := c.Cancel(id), r.Cancel(id); got != want {
					t.Fatalf("seed %d round %d: Cancel(%d) wheel=%v heap=%v", seed, round, id, got, want)
				}
			case 3: // advance and drain due events
				d := Duration(rng.Int63n(1 << uint(rng.Intn(34))))
				c.Advance(d)
				r.Advance(d)
				for {
					pev, pok := c.PeekDue()
					ev, ok := c.PopDue()
					rev, rok := r.PopDue()
					if ok != rok {
						t.Fatalf("seed %d round %d: PopDue wheel=%v heap=%v", seed, round, ok, rok)
					}
					if pok != ok || (ok && pev != ev) {
						t.Fatalf("seed %d round %d: PeekDue (%+v,%v) != PopDue (%+v,%v)", seed, round, pev, pok, ev, ok)
					}
					if !ok {
						break
					}
					if ev != rev {
						t.Fatalf("seed %d round %d: event %+v != heap %+v", seed, round, ev, rev)
					}
				}
			case 4: // expiry report must agree at every moment
				at, ok := c.NextExpiry()
				rat, rok := r.NextExpiry()
				if ok != rok || (ok && at != rat) {
					t.Fatalf("seed %d round %d: NextExpiry wheel=(%v,%v) heap=(%v,%v)", seed, round, at, ok, rat, rok)
				}
			}
		}
		// Drain both completely and compare the tail.
		c.AdvanceTo(Infinity)
		r.now = Infinity
		for {
			ev, ok := c.PopDue()
			rev, rok := r.PopDue()
			if ok != rok {
				t.Fatalf("seed %d drain: PopDue wheel=%v heap=%v", seed, ok, rok)
			}
			if !ok {
				break
			}
			if ev != rev {
				t.Fatalf("seed %d drain: event %+v != heap %+v", seed, ev, rev)
			}
		}
		if c.Pending() != 0 || r.Pending() != 0 {
			t.Fatalf("seed %d: pending wheel=%d heap=%d after full drain", seed, c.Pending(), r.Pending())
		}
	}
}

// TestWheelStepMatchesHeap runs randomized Step sequences against the
// reference model: the wheel's Step must stop at bit-identical instants
// and report the same due flag, since the core kernel's Compute path and
// idle loop depend on exact expiry times for determinism.
func TestWheelStepMatchesHeap(t *testing.T) {
	c := NewClock()
	r := newRefClock()
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5000; round++ {
		if rng.Intn(3) == 0 {
			d := Duration(rng.Int63n(1 << uint(rng.Intn(30))))
			c.ScheduleAfter(d, round)
			r.ScheduleAfter(d, round)
		}
		d := Duration(rng.Int63n(1 << uint(rng.Intn(24))))
		adv, due := c.Step(d)
		radv, rdue := r.Step(d)
		if adv != radv || due != rdue {
			t.Fatalf("round %d: Step(%d) wheel=(%v,%v) heap=(%v,%v)", round, d, adv, due, radv, rdue)
		}
		if c.Now() != r.Now() {
			t.Fatalf("round %d: Now wheel=%v heap=%v", round, c.Now(), r.Now())
		}
		if due {
			ev, ok := c.PopDue()
			rev, rok := r.PopDue()
			if ok != rok || ev != rev {
				t.Fatalf("round %d: pop wheel=(%+v,%v) heap=(%+v,%v)", round, ev, ok, rev, rok)
			}
		}
	}
}

// TestCancelStormBoundedEntries is the satellite regression test: arming
// and cancelling one million timers (the timed-wait-always-succeeds
// pattern) must not grow the live entry population — every cancel
// recycles its entry on the spot, so the pool stays at the working-set
// size instead of accumulating a million tombstones.
func TestCancelStormBoundedEntries(t *testing.T) {
	c := NewClock()
	const storm = 1_000_000
	const resident = 32 // armed timers kept live across the storm
	var held []TimerID
	for i := 0; i < resident; i++ {
		held = append(held, c.ScheduleAfter(Duration(1_000_000+i), nil))
	}
	for i := 0; i < storm; i++ {
		id := c.ScheduleAfter(Duration(1+i%1000), nil)
		if !c.Cancel(id) {
			t.Fatalf("timer %d vanished before cancel", i)
		}
		if i%1024 == 0 {
			c.Advance(1) // keep the wheel anchor moving across slots
		}
	}
	if got := c.liveLen; got > resident+8 {
		t.Fatalf("1M arm/cancel storm allocated %d live entries, want <= %d", got, resident+8)
	}
	if got := c.Pending(); got != resident {
		t.Fatalf("Pending = %d after storm, want %d", got, resident)
	}
	for _, id := range held {
		if !c.Cancel(id) {
			t.Fatal("resident timer lost")
		}
	}
	if got := c.freeLen; got > resident+8 {
		t.Fatalf("free list holds %d entries, want <= %d", got, resident+8)
	}
}

// TestWheelFarFutureAndInfinity pins the coarse-slot paths: an Infinity
// sentinel (level 10) must never surface, and exact expiries must be
// reported for far-future timers without advancing the clock.
func TestWheelFarFutureAndInfinity(t *testing.T) {
	c := NewClock()
	c.ScheduleAt(Infinity, "sentinel")
	far := Time(3_600_000_000_000) // one hour
	c.ScheduleAt(far, "hour")
	if at, ok := c.NextExpiry(); !ok || at != far {
		t.Fatalf("NextExpiry = %v, %v; want %v", at, ok, far)
	}
	c.ScheduleAt(far-1, "earlier")
	if at, ok := c.NextExpiry(); !ok || at != far-1 {
		t.Fatalf("NextExpiry after earlier arm = %v, %v; want %v", at, ok, far-1)
	}
	c.AdvanceTo(far)
	ev, ok := c.PopDue()
	if !ok || ev.Payload != "earlier" || ev.At != far-1 {
		t.Fatalf("PopDue = %+v, %v", ev, ok)
	}
	ev, ok = c.PopDue()
	if !ok || ev.Payload != "hour" || ev.At != far {
		t.Fatalf("PopDue = %+v, %v", ev, ok)
	}
	if _, ok := c.PopDue(); ok {
		t.Fatal("Infinity sentinel fired")
	}
	if at, ok := c.NextExpiry(); !ok || at != Infinity {
		t.Fatalf("NextExpiry = %v, %v; want Infinity", at, ok)
	}
}

// TestWheelQueriesMatchHeapEveryOp compares NextExpiry and PeekDue with
// the reference heap after every single operation. The sequences are
// kept sparse, so the wheel keeps draining to empty and refilling, and
// the anchor is often already caught up: the empty-clock and caught-up
// fast paths must be indistinguishable from a full scan. Some arms land
// at Infinity, which must read as "a timer at Infinity", never as "no
// timer"; others land in the past and are due at once.
func TestWheelQueriesMatchHeapEveryOp(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, r := NewClock(), newRefClock()
		var live []TimerID
		check := func(round int, op string) {
			t.Helper()
			at, ok := c.NextExpiry()
			rat, rok := r.NextExpiry()
			if ok != rok || (ok && at != rat) {
				t.Fatalf("seed %d round %d after %s: NextExpiry wheel=(%v,%v) heap=(%v,%v)", seed, round, op, at, ok, rat, rok)
			}
			ev, ok := c.PeekDue()
			rev, rok := r.PeekDue()
			if ok != rok || ev != rev {
				t.Fatalf("seed %d round %d after %s: PeekDue wheel=(%+v,%v) heap=(%+v,%v)", seed, round, op, ev, ok, rev, rok)
			}
		}
		arm := func(at Time, round int) {
			id, rid := c.ScheduleAt(at, round), r.ScheduleAt(at, round)
			if id != rid {
				t.Fatalf("seed %d round %d: wheel id %d != heap id %d", seed, round, id, rid)
			}
			live = append(live, id)
		}
		check(-1, "start")
		for round := 0; round < 3000; round++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				op = "arm"
				arm(c.Now().Add(Duration(rng.Int63n(1<<uint(rng.Intn(24))))), round)
			case k < 6:
				op = "cancel"
				if len(live) == 0 {
					break
				}
				i := rng.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if got, want := c.Cancel(id), r.Cancel(id); got != want {
					t.Fatalf("seed %d round %d: Cancel(%d) wheel=%v heap=%v", seed, round, id, got, want)
				}
			case k < 8:
				op = "advance"
				d := Duration(rng.Int63n(1 << uint(rng.Intn(22))))
				c.Advance(d)
				r.Advance(d)
			case k < 9:
				op = "pop"
				ev, ok := c.PopDue()
				rev, rok := r.PopDue()
				if ok != rok || ev != rev {
					t.Fatalf("seed %d round %d: PopDue wheel=(%+v,%v) heap=(%+v,%v)", seed, round, ev, ok, rev, rok)
				}
			default:
				if rng.Intn(4) == 0 {
					op = "arm-infinity"
					arm(Infinity, round)
				} else {
					op = "arm-past"
					arm(c.Now()-Time(rng.Int63n(1000)), round)
				}
			}
			check(round, op)
		}
	}
}
