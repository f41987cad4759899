package vtime

import "testing"

// scriptGov grants from a scripted list of (grant, lease) pairs, one per
// ask, regranting until the advance completes.
type scriptGov struct {
	t      *testing.T
	c      *Clock
	grants []struct{ grant, lease Time }
	calls  []struct{ now, want Time }
}

func (g *scriptGov) Wait(now, want Time) {
	for ask := true; ask; now = g.c.Now() {
		g.calls = append(g.calls, struct{ now, want Time }{now, want})
		if len(g.grants) == 0 {
			g.t.Fatalf("unexpected ask (now=%v, want=%v)", now, want)
		}
		gr := g.grants[0]
		g.grants = g.grants[1:]
		want, ask = g.c.Regrant(gr.grant, gr.lease)
	}
}

// freeGov grants everything asked, with an infinite lease.
type freeGov struct {
	c     *Clock
	calls int
}

func (g *freeGov) Wait(now, want Time) {
	for ask := true; ask; {
		g.calls++
		want, ask = g.c.Regrant(want, Infinity)
	}
}

// TestGovernorNilIdentity: a clock with no governor behaves exactly as
// before — the governed paths are never taken.
func TestGovernorNilIdentity(t *testing.T) {
	a, b := NewClock(), NewClock()
	b.SetGovernor(nil)
	ops := func(c *Clock) (Time, Duration, bool) {
		c.ScheduleAfter(100, "x")
		c.Advance(30)
		adv, due := c.Step(100)
		c.AdvanceTo(c.Now().Add(50))
		return c.Now(), adv, due
	}
	an, aadv, adue := ops(a)
	bn, badv, bdue := ops(b)
	if an != bn || aadv != badv || adue != bdue {
		t.Fatalf("nil-governor divergence: (%v,%v,%v) vs (%v,%v,%v)", an, aadv, adue, bn, badv, bdue)
	}
}

// TestGovernorLeaseFreeRun: advances below the lease never call the
// governor; the first advance beyond it does.
func TestGovernorLeaseFreeRun(t *testing.T) {
	c := NewClock()
	g := &freeGov{c: c}
	c.SetGovernor(g)
	c.Advance(10) // lease starts at 0: must ask
	if g.calls != 1 {
		t.Fatalf("calls = %d, want 1", g.calls)
	}
	c.Advance(500) // lease is Infinity now: free-run
	c.AdvanceTo(c.Now().Add(500))
	if _, due := c.Step(100); due {
		t.Fatal("unexpected due")
	}
	if g.calls != 1 {
		t.Fatalf("calls = %d, want 1 (lease should cover free-run)", g.calls)
	}
	if c.Now() != 1110 {
		t.Fatalf("now = %v, want 1110", c.Now())
	}
}

// TestGovernorPartialGrant: a partial grant loops, and a truncatable
// advance stops early at an event another host landed mid-park.
func TestGovernorPartialGrant(t *testing.T) {
	c := NewClock()
	g := &scriptGov{t: t, c: c}
	c.SetGovernor(g)
	// First grant: partial to 40 with lease 40. While "parked", an event
	// lands at 60 (simulated by scheduling before the second call).
	g.grants = append(g.grants,
		struct{ grant, lease Time }{40, 40},
		struct{ grant, lease Time }{60, 70},
	)
	c.ScheduleAt(60, "arrival")
	c.AdvanceTo(100)
	// The idle advance must stop at 60, not reach 100.
	if c.Now() != 60 {
		t.Fatalf("now = %v, want 60 (truncated at arrival)", c.Now())
	}
	if len(g.calls) != 2 {
		t.Fatalf("grant calls = %d, want 2", len(g.calls))
	}
	// The second ask must have been bounded by the arrival, not the target.
	if g.calls[1].want != 60 {
		t.Fatalf("second want = %v, want 60", g.calls[1].want)
	}
}

// TestGovernorChargeIgnoresTimers: a charge (Advance) never truncates at
// a timer expiry — it asks straight to its target.
func TestGovernorChargeIgnoresTimers(t *testing.T) {
	c := NewClock()
	g := &scriptGov{t: t, c: c}
	c.SetGovernor(g)
	g.grants = append(g.grants, struct{ grant, lease Time }{100, 200})
	c.ScheduleAt(50, "mid-charge")
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("now = %v, want 100", c.Now())
	}
	if g.calls[0].want != 100 {
		t.Fatalf("want = %v, want 100 (charges don't stop at timers)", g.calls[0].want)
	}
	if at, ok := c.NextExpiry(); !ok || at != 50 {
		t.Fatalf("expiry = %v,%v — timer must still be armed (overdue)", at, ok)
	}
}

// TestGovernorPauseJump: a grant beyond the want (a fault-window pause)
// carries the clock past the target; Step reports the inflated advance.
func TestGovernorPauseJump(t *testing.T) {
	c := NewClock()
	g := &scriptGov{t: t, c: c}
	c.SetGovernor(g)
	g.grants = append(g.grants, struct{ grant, lease Time }{500, 500})
	adv, due := c.Step(100)
	if c.Now() != 500 {
		t.Fatalf("now = %v, want 500 (pause jump)", c.Now())
	}
	if adv != 500 || due {
		t.Fatalf("Step = (%v, %v), want (500, false)", adv, due)
	}
}

// TestGovernorStepDue: the governed Step still stops at expiries and
// reports due, exactly like the ungoverned one.
func TestGovernorStepDue(t *testing.T) {
	c := NewClock()
	g := &freeGov{c: c}
	c.SetGovernor(g)
	// Force the governed path by keeping the lease behind the target.
	c.ScheduleAt(30, "timer")
	adv, due := c.Step(100)
	if adv != 30 || !due {
		t.Fatalf("Step = (%v, %v), want (30, true)", adv, due)
	}
	if c.Now() != 30 {
		t.Fatalf("now = %v, want 30", c.Now())
	}
	// Overdue timer: no motion, report due.
	adv, due = c.Step(100)
	if adv != 0 || !due {
		t.Fatalf("Step = (%v, %v), want (0, true)", adv, due)
	}
}
