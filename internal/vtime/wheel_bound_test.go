package vtime

import (
	"math/rand"
	"testing"
)

// Wheel-order tests for the bound (a poll before the clock reaches it is
// one compare), the summary word and the single-entry path of fixup. Each case drives the wheel and the
// reference heap through the same ops and compares them after every op.
// A case runs twice: once comparing only what the op itself returns plus
// Now and Pending, so that no extra poll moves the anchor or the bound
// between the case's own ops; and once also comparing PeekDue and
// NextExpiry after every op.

type lockstep struct {
	t     *testing.T
	c     *Clock
	r     *refClock
	probe bool // also compare PeekDue and NextExpiry after every op
}

func newLockstep(t *testing.T, probe bool) *lockstep {
	return &lockstep{t: t, c: NewClock(), r: newRefClock(), probe: probe}
}

func (l *lockstep) check(op string) {
	l.t.Helper()
	if c, r := l.c.Now(), l.r.Now(); c != r {
		l.t.Fatalf("after %s: Now wheel=%v heap=%v", op, c, r)
	}
	if c, r := l.c.Pending(), l.r.Pending(); c != r {
		l.t.Fatalf("after %s: Pending wheel=%d heap=%d", op, c, r)
	}
	if !l.probe {
		return
	}
	ev, ok := l.c.PeekDue()
	rev, rok := l.r.PeekDue()
	if ok != rok || ev != rev {
		l.t.Fatalf("after %s: PeekDue wheel=(%+v,%v) heap=(%+v,%v)", op, ev, ok, rev, rok)
	}
	at, ok := l.c.NextExpiry()
	rat, rok := l.r.NextExpiry()
	if ok != rok || (ok && at != rat) {
		l.t.Fatalf("after %s: NextExpiry wheel=(%v,%v) heap=(%v,%v)", op, at, ok, rat, rok)
	}
}

func (l *lockstep) arm(at Time, payload any) TimerID {
	l.t.Helper()
	id, rid := l.c.ScheduleAt(at, payload), l.r.ScheduleAt(at, payload)
	if id != rid {
		l.t.Fatalf("arm %v: wheel id %d != heap id %d", at, id, rid)
	}
	l.check("arm")
	return id
}

func (l *lockstep) cancel(id TimerID) {
	l.t.Helper()
	if got, want := l.c.Cancel(id), l.r.Cancel(id); got != want {
		l.t.Fatalf("Cancel(%d) wheel=%v heap=%v", id, got, want)
	}
	l.check("cancel")
}

func (l *lockstep) advanceTo(at Time) {
	l.t.Helper()
	l.c.AdvanceTo(at)
	l.r.now = at
	l.check("advance")
}

// pop pops once from both and returns the wheel's event.
func (l *lockstep) pop() (Event, bool) {
	l.t.Helper()
	ev, ok := l.c.PopDue()
	rev, rok := l.r.PopDue()
	if ok != rok || ev != rev {
		l.t.Fatalf("PopDue at %v wheel=(%+v,%v) heap=(%+v,%v)", l.c.Now(), ev, ok, rev, rok)
	}
	l.check("pop")
	return ev, ok
}

func (l *lockstep) peek() (Event, bool) {
	l.t.Helper()
	ev, ok := l.c.PeekDue()
	rev, rok := l.r.PeekDue()
	if ok != rok || ev != rev {
		l.t.Fatalf("PeekDue at %v wheel=(%+v,%v) heap=(%+v,%v)", l.c.Now(), ev, ok, rev, rok)
	}
	l.check("peek")
	return ev, ok
}

func (l *lockstep) next() {
	l.t.Helper()
	at, ok := l.c.NextExpiry()
	rat, rok := l.r.NextExpiry()
	if ok != rok || (ok && at != rat) {
		l.t.Fatalf("NextExpiry wheel=(%v,%v) heap=(%v,%v)", at, ok, rat, rok)
	}
	l.check("next")
}

// emptyPoll pops and requires nothing to be due.
func (l *lockstep) emptyPoll() {
	l.t.Helper()
	if ev, ok := l.pop(); ok {
		l.t.Fatalf("empty poll at %v popped %+v", l.c.Now(), ev)
	}
}

// drain pops until nothing is due and returns the payloads in pop order.
func (l *lockstep) drain() []any {
	l.t.Helper()
	var out []any
	for {
		ev, ok := l.pop()
		if !ok {
			return out
		}
		out = append(out, ev.Payload)
	}
}

// runBoth runs a case without and with the per-op probes.
func runBoth(t *testing.T, body func(l *lockstep)) {
	for _, probe := range []bool{false, true} {
		body(newLockstep(t, probe))
	}
}

// TestWheelSingleCoarseEntryAtSlotBase: a lone coarse entry due exactly at
// its slot base takes the single-entry path on the tick it comes due, and
// also when the clock has run past it.
func TestWheelSingleCoarseEntryAtSlotBase(t *testing.T) {
	for _, level := range []uint{1, 2, 3, 5} {
		base := Time(3) << (level * levelBits) // a slot base at this level, from anchor 0
		for _, past := range []Duration{0, 1, 7} {
			runBoth(t, func(l *lockstep) {
				l.emptyPoll()
				l.arm(base, "base") // anchors the empty wheel at 0
				l.arm(Time(60)<<(level*levelBits), "later")
				l.emptyPoll()
				l.advanceTo(base - 1)
				l.emptyPoll()
				l.advanceTo(base.Add(past))
				if got := l.drain(); len(got) != 1 || got[0] != "base" {
					t.Fatalf("level %d past %v: drained %v, want [base]", level, past, got)
				}
				l.emptyPoll()
			})
		}
	}
}

// TestWheelSingleCoarseEntryAfterSlotBase: a lone coarse entry due after
// its slot base, polled on its tick and past it (mode 0); also polled at
// instants between the slot base and its expiry, which the bound answers
// (mode 1), or which re-file it because a cancelled sibling left the
// bound at the sibling's expiry (mode 2).
func TestWheelSingleCoarseEntryAfterSlotBase(t *testing.T) {
	for _, level := range []uint{1, 2, 3, 5} {
		base := Time(3) << (level * levelBits)
		at := base + Time(1)<<(level*levelBits)/2 + 5
		for mode := 0; mode < 3; mode++ {
			for _, past := range []Duration{0, 1} {
				runBoth(t, func(l *lockstep) {
					l.emptyPoll()
					l.arm(at, "mid")
					l.arm(Time(60)<<(level*levelBits), "later")
					if mode == 2 {
						l.cancel(l.arm(base+1, "sibling"))
					}
					l.advanceTo(base - 1)
					l.emptyPoll()
					refiled := l.c.WheelStats().Refiled
					if mode > 0 {
						l.advanceTo(base + 1)
						l.emptyPoll()
						l.advanceTo(at - 1)
						l.emptyPoll()
					}
					if mode == 2 && !l.probe && l.c.WheelStats().Refiled == refiled {
						t.Fatalf("level %d: the poll after the sibling's expiry re-filed nothing", level)
					}
					l.advanceTo(at.Add(past))
					if got := l.drain(); len(got) != 1 || got[0] != "mid" {
						t.Fatalf("level %d mode %d past %v: drained %v, want [mid]", level, mode, past, got)
					}
					l.emptyPoll()
				})
			}
		}
	}
}

// TestWheelSameInstantFarAndNearAnchors: two timers at one instant, the
// first armed while the anchor was far behind it (a coarse slot) and the
// second after the clock has closed in (a fine slot), pop in arm order.
// Same with the near one armed first, and with a third armed at the
// instant itself, straight onto the due list.
func TestWheelSameInstantFarAndNearAnchors(t *testing.T) {
	for _, at := range []Time{5000, 4096, 1 << 20, 1<<20 + 4095, 3<<24 + 17} {
		for _, gap := range []Duration{1, 10, 63, 64, 100, 4095} {
			if Duration(at) <= gap {
				continue
			}
			runBoth(t, func(l *lockstep) {
				l.emptyPoll()
				l.arm(at, "far")
				l.advanceTo(at - Time(gap))
				l.emptyPoll()
				l.arm(at, "near")
				l.advanceTo(at)
				l.arm(at, "now")
				got := l.drain()
				if len(got) != 3 || got[0] != "far" || got[1] != "near" || got[2] != "now" {
					t.Fatalf("at %v gap %v: drained %v, want [far near now]", at, gap, got)
				}
			})
			runBoth(t, func(l *lockstep) {
				l.advanceTo(at - Time(gap))
				l.emptyPoll()
				l.arm(at, "near")
				l.advanceTo(at - Time(gap)/2)
				l.arm(at, "later arm")
				l.advanceTo(at + 3)
				got := l.drain()
				if len(got) != 2 || got[0] != "near" || got[1] != "later arm" {
					t.Fatalf("at %v gap %v: drained %v, want [near, later arm]", at, gap, got)
				}
			})
		}
	}
}

// TestWheelArmBelowBoundBetweenEmptyPolls: with the bound at a far timer,
// an arm below it between two empty polls must not be hidden by the bound
// once the clock passes it.
func TestWheelArmBelowBoundBetweenEmptyPolls(t *testing.T) {
	for _, d := range []Duration{1, 50, 64, 4000, 4096, 100000} {
		runBoth(t, func(l *lockstep) {
			l.advanceTo(12345)
			l.arm(Time(Second), "far")
			l.emptyPoll() // bound at the far timer's expiry
			l.advanceTo(12345 + 7)
			l.emptyPoll() // answered by the bound
			l.arm(l.c.Now().Add(d), "near")
			l.emptyPoll()
			l.advanceTo(l.c.Now().Add(d))
			if got := l.drain(); len(got) != 1 || got[0] != "near" {
				t.Fatalf("d %v: drained %v, want [near]", d, got)
			}
			l.emptyPoll()
			// An arm already overdue relative to the clock, with the
			// anchor behind the clock, is due at the next poll.
			l.advanceTo(l.c.Now().Add(3 * d))
			l.arm(l.c.Now()-Time(d), "overdue")
			if got := l.drain(); len(got) != 1 || got[0] != "overdue" {
				t.Fatalf("d %v: drained %v, want [overdue]", d, got)
			}
		})
	}
}

// TestWheelCancelOnlyTimerBetweenPolls: cancelling the only timer between
// two empty polls leaves the bound low, which is conservative; re-arming
// it (a new ID at the same instant) fires it exactly once, on time.
func TestWheelCancelOnlyTimerBetweenPolls(t *testing.T) {
	for _, d := range []Duration{1, 63, 64, 5000, 1 << 20} {
		runBoth(t, func(l *lockstep) {
			l.advanceTo(999)
			id := l.arm(l.c.Now().Add(d), "first")
			at := l.c.Now().Add(d)
			l.emptyPoll()
			l.cancel(id)
			l.emptyPoll()
			l.cancel(id) // already gone
			l.next()
			l.arm(at, "again")
			l.emptyPoll()
			l.advanceTo(at - 1)
			l.emptyPoll()
			l.advanceTo(at)
			if got := l.drain(); len(got) != 1 || got[0] != "again" {
				t.Fatalf("d %v: drained %v, want [again]", d, got)
			}
			l.emptyPoll()
			l.next()
		})
	}
}

// TestWheelPeekThenPopSameTick: PeekDue moves the anchor and may cascade,
// and the PopDue on the same tick must return what it reported; a peek
// on a tick with nothing due must leave the next tick's timer intact.
func TestWheelPeekThenPopSameTick(t *testing.T) {
	for _, d := range []Duration{1, 64, 4096, 4097, 300000} {
		runBoth(t, func(l *lockstep) {
			l.advanceTo(77)
			at := l.c.Now().Add(d)
			l.arm(at, "a")
			l.arm(at, "b")
			l.arm(at+1, "c")
			l.advanceTo(at - 1)
			if _, ok := l.peek(); ok {
				t.Fatalf("d %v: peek before the tick reported an event", d)
			}
			l.advanceTo(at)
			for _, want := range []string{"a", "b"} {
				pev, ok := l.peek()
				if !ok || pev.Payload != want {
					t.Fatalf("d %v: peek = (%+v,%v), want %s", d, pev, ok, want)
				}
				ev, _ := l.pop()
				if ev != pev {
					t.Fatalf("d %v: pop %+v after peek %+v", d, ev, pev)
				}
			}
			if _, ok := l.peek(); ok {
				t.Fatalf("d %v: c reported due a tick early", d)
			}
			l.advanceTo(at + 1)
			if got := l.drain(); len(got) != 1 || got[0] != "c" {
				t.Fatalf("d %v: drained %v, want [c]", d, got)
			}
		})
	}
}

// TestWheelBoundPropertyEveryOp is the randomized form of the cases above:
// short arms near the clock, far arms, cancels, small advances and runs
// of empty polls, compared with the heap after every op in both modes.
func TestWheelBoundPropertyEveryOp(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, probe := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			l := newLockstep(t, probe)
			var live []TimerID
			for round := 0; round < 3000; round++ {
				switch k := rng.Intn(10); {
				case k < 3:
					d := Duration(rng.Int63n(1 << uint(rng.Intn(20))))
					live = append(live, l.arm(l.c.Now().Add(d), round))
				case k < 4:
					live = append(live, l.arm(l.c.Now().Add(Duration(rng.Int63n(1<<34))), round))
				case k < 5:
					if len(live) > 0 {
						i := rng.Intn(len(live))
						l.cancel(live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				case k < 7:
					l.advanceTo(l.c.Now().Add(Duration(rng.Int63n(1 << uint(rng.Intn(16))))))
				case k < 9:
					l.pop()
				default:
					l.peek()
				}
			}
		}
	}
}

// TestWheelEchoShapedLoopWork runs the timer traffic of one echo op
// against the clock alone: one timer a second out; then, per iteration,
// a timer 2–64 µs ahead, three empty polls 100–500 ns apart, an advance
// to NextExpiry, the pop, and one more empty poll on the same tick. Per
// fired timer the wheel may look up its earliest region at most 4 times
// and re-file at most 0.05 entries, and the second and third empty polls
// must be answered by the bound without looking at the wheel.
func TestWheelEchoShapedLoopWork(t *testing.T) {
	const iters = 10000
	rng := rand.New(rand.NewSource(1))
	c := NewClock()
	c.ScheduleAfter(Second, "far")
	start := c.WheelStats()
	for i := 0; i < iters; i++ {
		c.ScheduleAfter(Duration(2000+rng.Int63n(62001)), i)
		for p := 1; p <= 3; p++ {
			c.Advance(Duration(100 + rng.Int63n(401)))
			before := c.WheelStats()
			if ev, ok := c.PopDue(); ok {
				t.Fatalf("iteration %d: empty poll %d popped %+v", i, p, ev)
			}
			if p > 1 && c.WheelStats().RegionScans != before.RegionScans {
				t.Fatalf("iteration %d: empty poll %d scanned the wheel", i, p)
			}
		}
		at, ok := c.NextExpiry()
		if !ok {
			t.Fatalf("iteration %d: no expiry", i)
		}
		c.AdvanceTo(at)
		if ev, ok := c.PopDue(); !ok || ev.Payload != i {
			t.Fatalf("iteration %d: pop = (%+v,%v)", i, ev, ok)
		}
		if ev, ok := c.PopDue(); ok {
			t.Fatalf("iteration %d: trailing poll popped %+v", i, ev)
		}
	}
	w := c.WheelStats()
	scans := float64(w.RegionScans-start.RegionScans) / iters
	refiled := float64(w.Refiled-start.Refiled) / iters
	t.Logf("per fired timer: %.3f region scans, %.4f re-filed, %.3f coarse-slot reads, %.3f bound polls",
		scans, refiled, float64(w.SlotScanned-start.SlotScanned)/iters, float64(w.BoundPolls-start.BoundPolls)/iters)
	if scans > 4 {
		t.Errorf("%.3f region scans per fired timer, want at most 4", scans)
	}
	if refiled > 0.05 {
		t.Errorf("%.4f entries re-filed per fired timer, want at most 0.05", refiled)
	}
}
