package vtime

import "testing"

// Boundary-tick regression tests for the wheel cascade. The wheel files
// entries by the highest differing bit between expiry and the lazy anchor
// wt, so the delicate instants are exactly the level boundaries: expiries
// at wt + 64^k - 1, wt + 64^k, wt + 64^k + 1, and anchors sitting exactly
// on a slot edge. These tests drive the wheel and the heap oracle in
// strict lockstep through arm/cancel/advance sequences pinned to those
// instants — including cancel-then-rearm sequences that recycle the freed
// entry (and its index-page slot) within the same tick — and require
// identical IDs, fire order, fire times, and expiry reports.

// drainCompare pops both clocks dry at their current instants and
// requires identical event streams.
func drainCompare(t *testing.T, tag string, c *Clock, r *refClock) {
	t.Helper()
	for {
		ev, ok := c.PopDue()
		rev, rok := r.PopDue()
		if ok != rok {
			t.Fatalf("%s: PopDue wheel=%v heap=%v", tag, ok, rok)
		}
		if !ok {
			return
		}
		if ev != rev {
			t.Fatalf("%s: event %+v != heap %+v", tag, ev, rev)
		}
	}
}

// expiryCompare requires both clocks to report the same next expiry.
func expiryCompare(t *testing.T, tag string, c *Clock, r *refClock) {
	t.Helper()
	at, ok := c.NextExpiry()
	rat, rok := r.NextExpiry()
	if ok != rok || (ok && at != rat) {
		t.Fatalf("%s: NextExpiry wheel=(%v,%v) heap=(%v,%v)", tag, at, ok, rat, rok)
	}
}

// boundaryOffsets are the distances from an anchor that straddle every
// wheel-level edge the geometry has below ~64^3: the last tick a timer
// still files at level k, the first tick of level k+1, and one past it.
func boundaryOffsets() []Duration {
	var offs []Duration
	for _, edge := range []int64{1 << levelBits, 1 << (2 * levelBits), 1 << (3 * levelBits)} {
		offs = append(offs, Duration(edge-1), Duration(edge), Duration(edge+1))
	}
	return offs
}

// anchorTimes are wt positions to test from: zero, mid-slot, the exact
// slot edges at each level, and one tick either side of those edges.
func anchorTimes() []Time {
	ts := []Time{0, 7}
	for _, edge := range []int64{1 << levelBits, 1 << (2 * levelBits), 1 << (3 * levelBits)} {
		ts = append(ts, Time(edge-1), Time(edge), Time(edge+1))
	}
	return ts
}

// TestWheelBoundaryArmFireOrder arms a cluster of timers straddling each
// level edge from each anchor position and checks the cascade delivers
// them in exactly the heap's (at, seq) order, stepping the clock to each
// expiry precisely (never past it) so every cascade happens on the
// boundary tick itself.
func TestWheelBoundaryArmFireOrder(t *testing.T) {
	for _, anchor := range anchorTimes() {
		c := NewClock()
		r := newRefClock()
		c.AdvanceTo(anchor)
		r.now = anchor
		// The first arm into the empty wheel anchors it at the advanced
		// instant; before it, an empty clock must report no expiry.
		expiryCompare(t, "empty", c, r)

		for _, d := range boundaryOffsets() {
			// Two timers per offset: same instant, distinct seq, so the
			// FIFO tiebreak is exercised right on the boundary.
			id := c.ScheduleAfter(d, d)
			rid := r.ScheduleAfter(d, d)
			if id != rid {
				t.Fatalf("anchor %v offset %v: wheel id %d != heap id %d", anchor, d, id, rid)
			}
			c.ScheduleAfter(d, ^int64(d))
			r.ScheduleAfter(d, ^int64(d))
		}
		if c.wt != anchor {
			t.Fatalf("anchor %v: wheel filed against %v, so the offsets straddle no edge", anchor, c.wt)
		}
		expiryCompare(t, "armed", c, r)

		// Walk expiry to expiry: stop exactly on every boundary tick.
		for {
			at, ok := c.NextExpiry()
			expiryCompare(t, "walk", c, r)
			if !ok {
				break
			}
			c.AdvanceTo(at)
			r.now = at
			drainCompare(t, "walk", c, r)
		}
		if c.Pending() != 0 || r.Pending() != 0 {
			t.Fatalf("anchor %v: pending wheel=%d heap=%d after walk", anchor, c.Pending(), r.Pending())
		}
	}
}

// TestWheelBoundaryCancelOnTick advances both clocks exactly onto a
// level-boundary expiry and cancels the timer on that very tick — after
// the cascade may already have moved it to the due list — then checks the
// cancel result and the surviving timers' order agree with the heap.
func TestWheelBoundaryCancelOnTick(t *testing.T) {
	for _, anchor := range anchorTimes() {
		for _, d := range boundaryOffsets() {
			c := NewClock()
			r := newRefClock()
			c.AdvanceTo(anchor)
			r.now = anchor

			// The victim sits on the boundary; two bystanders bracket it
			// so the slot lists around the edge stay populated.
			before := c.ScheduleAfter(d-1, "before")
			r.ScheduleAfter(d-1, "before")
			victim := c.ScheduleAfter(d, "victim")
			rvictim := r.ScheduleAfter(d, "victim")
			after := c.ScheduleAfter(d+1, "after")
			r.ScheduleAfter(d+1, "after")
			_ = before
			_ = after
			if victim != rvictim {
				t.Fatalf("anchor %v d %v: id mismatch %d vs %d", anchor, d, victim, rvictim)
			}

			// Land exactly on the victim's expiry tick, forcing the
			// cascade (NextExpiry) first so the victim is already due,
			// then cancel it on that same tick.
			at := anchor.Add(d)
			c.AdvanceTo(at)
			r.now = at
			expiryCompare(t, "on-tick", c, r)
			if got, want := c.Cancel(victim), r.Cancel(rvictim); got != want {
				t.Fatalf("anchor %v d %v: Cancel on boundary tick wheel=%v heap=%v", anchor, d, got, want)
			}
			drainCompare(t, "on-tick", c, r)

			c.AdvanceTo(at.Add(2))
			r.now = at.Add(2)
			drainCompare(t, "tail", c, r)
			if c.Pending() != 0 || r.Pending() != 0 {
				t.Fatalf("anchor %v d %v: pending wheel=%d heap=%d", anchor, d, c.Pending(), r.Pending())
			}
		}
	}
}

// TestWheelCancelRearmRecycledSameTick pins the free-list/index-page
// recycling path: cancel a timer and immediately re-arm at the very same
// instant, within the same tick. The replacement reuses the freed entry
// (and, across a page boundary, the freed index page) but must carry a
// fresh ID and a fresh seq — the rearmed timer fires *after* any
// still-armed peer at the same instant, exactly as the heap orders it.
func TestWheelCancelRearmRecycledSameTick(t *testing.T) {
	for _, anchor := range anchorTimes() {
		for _, d := range boundaryOffsets() {
			c := NewClock()
			r := newRefClock()
			c.AdvanceTo(anchor)
			r.now = anchor
			at := anchor.Add(d)

			// peer is armed first at the instant; a then b recycle a's
			// entry at the same instant on the same (un-advanced) tick.
			peer := c.ScheduleAt(at, "peer")
			r.ScheduleAt(at, "peer")
			a := c.ScheduleAt(at, "a")
			ra := r.ScheduleAt(at, "a")
			if !c.Cancel(a) || !r.Cancel(ra) {
				t.Fatalf("anchor %v d %v: cancel of fresh timer failed", anchor, d)
			}
			b := c.ScheduleAt(at, "b")
			rb := r.ScheduleAt(at, "b")
			if b != rb {
				t.Fatalf("anchor %v d %v: rearm id wheel=%d heap=%d", anchor, d, b, rb)
			}
			if b == a {
				t.Fatalf("anchor %v d %v: rearm reused TimerID %d — IDs must stay monotone", anchor, d, a)
			}
			if c.Pending() != 2 || r.Pending() != 2 {
				t.Fatalf("anchor %v d %v: pending wheel=%d heap=%d", anchor, d, c.Pending(), r.Pending())
			}
			expiryCompare(t, "rearmed", c, r)

			c.AdvanceTo(at)
			r.now = at
			ev1, ok1 := c.PopDue()
			rev1, _ := r.PopDue()
			ev2, ok2 := c.PopDue()
			rev2, _ := r.PopDue()
			if !ok1 || !ok2 {
				t.Fatalf("anchor %v d %v: expected two due events", anchor, d)
			}
			if ev1 != rev1 || ev2 != rev2 {
				t.Fatalf("anchor %v d %v: fire order (%+v,%+v) != heap (%+v,%+v)",
					anchor, d, ev1, ev2, rev1, rev2)
			}
			if ev1.ID != peer || ev2.ID != b {
				t.Fatalf("anchor %v d %v: recycled rearm jumped the FIFO: got %d,%d want %d,%d",
					anchor, d, ev1.ID, ev2.ID, peer, b)
			}
			drainCompare(t, "tail", c, r)
		}
	}
}

// TestWheelCancelRearmOnDueTick is the harsher variant: the clock is
// already standing on the expiry tick when the cancel-then-rearm happens,
// so the recycled entry is re-armed *at the anchor itself* and must land
// on the due list (behind existing due peers), never back in the wheel.
func TestWheelCancelRearmOnDueTick(t *testing.T) {
	for _, anchor := range anchorTimes() {
		for _, d := range boundaryOffsets() {
			c := NewClock()
			r := newRefClock()
			at := anchor.Add(d)

			peer := c.ScheduleAt(at, "peer")
			r.ScheduleAt(at, "peer")
			a := c.ScheduleAt(at, "a")
			ra := r.ScheduleAt(at, "a")

			// Stand exactly on the tick; cascade via NextExpiry so both
			// entries are already due, then recycle a into b in place.
			c.AdvanceTo(at)
			r.now = at
			expiryCompare(t, "due", c, r)
			if !c.Cancel(a) || !r.Cancel(ra) {
				t.Fatalf("anchor %v d %v: cancel of due timer failed", anchor, d)
			}
			b := c.ScheduleAt(at, "b")
			rb := r.ScheduleAt(at, "b")
			if b != rb {
				t.Fatalf("anchor %v d %v: rearm id wheel=%d heap=%d", anchor, d, b, rb)
			}
			expiryCompare(t, "rearmed-due", c, r)

			ev1, ok1 := c.PopDue()
			rev1, _ := r.PopDue()
			ev2, ok2 := c.PopDue()
			rev2, _ := r.PopDue()
			if !ok1 || !ok2 {
				t.Fatalf("anchor %v d %v: expected two due events", anchor, d)
			}
			if ev1 != rev1 || ev2 != rev2 {
				t.Fatalf("anchor %v d %v: due-tick fire order (%+v,%+v) != heap (%+v,%+v)",
					anchor, d, ev1, ev2, rev1, rev2)
			}
			if ev1.ID != peer || ev2.ID != b {
				t.Fatalf("anchor %v d %v: due-tick rearm misordered: got %d,%d want %d,%d",
					anchor, d, ev1.ID, ev2.ID, peer, b)
			}
			drainCompare(t, "tail", c, r)
		}
	}
}
