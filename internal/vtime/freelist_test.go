package vtime

import "testing"

// The unpooled reference model (refClock) lives in refheap_test.go: it is
// the library's original container/heap timer queue, kept test-only. The
// storm test below drives the pooled wheel Clock and this model in
// lockstep and requires identical due-order, proving neither the free
// list nor the wheel changes anything observable.

// xorshift is a tiny deterministic PRNG so the storm is reproducible
// without math/rand seeding ceremony.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// TestFreeListStormMatchesUnpooledHeap drives an arm/cancel/fire storm
// with interleaved cancels through the pooled Clock and the unpooled
// reference model and asserts the due-order (ID, At, Payload) is
// identical event for event.
func TestFreeListStormMatchesUnpooledHeap(t *testing.T) {
	c := NewClock()
	r := newRefClock()
	rng := xorshift(0x9e3779b97f4a7c15)

	var live []TimerID // IDs armed and not yet cancelled (may have fired)
	for round := 0; round < 5000; round++ {
		switch rng.next() % 4 {
		case 0, 1: // arm
			d := Duration(rng.next() % 500)
			id := c.ScheduleAfter(d, int(round))
			rid := r.ScheduleAt(r.now.Add(d), int(round))
			if id != rid {
				t.Fatalf("round %d: pooled id %d != reference id %d", round, id, rid)
			}
			live = append(live, id)
		case 2: // cancel a random earlier timer (possibly already fired)
			if len(live) == 0 {
				continue
			}
			id := live[rng.next()%uint64(len(live))]
			if got, want := c.Cancel(id), r.Cancel(id); got != want {
				t.Fatalf("round %d: Cancel(%d) pooled=%v reference=%v", round, id, got, want)
			}
		case 3: // advance and drain due events
			d := Duration(rng.next() % 200)
			c.Advance(d)
			r.now = r.now.Add(d)
			for {
				ev, ok := c.PopDue()
				rev, rok := r.PopDue()
				if ok != rok {
					t.Fatalf("round %d: PopDue pooled=%v reference=%v", round, ok, rok)
				}
				if !ok {
					break
				}
				if ev != rev {
					t.Fatalf("round %d: event %+v != reference %+v", round, ev, rev)
				}
			}
		}
	}
	if c.Pending() != len(r.entries) {
		t.Fatalf("pending mismatch: pooled %d, reference %d", c.Pending(), len(r.entries))
	}
}

// TestFreeListSteadyStateZeroAlloc warms the pool, then asserts that an
// arm/cancel/fire mix allocates nothing: every entry the storm needs is
// served from the free list.
func TestFreeListSteadyStateZeroAlloc(t *testing.T) {
	c := NewClock()
	// Warm-up: populate the free list with enough recycled entries to
	// cover the steady-state working set.
	for i := 0; i < 64; i++ {
		c.ScheduleAfter(1, nil)
	}
	c.Advance(1)
	for {
		if _, ok := c.PopDue(); !ok {
			break
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		// Arm three, cancel one mid-heap, fire the rest.
		a := c.ScheduleAfter(10, nil)
		b := c.ScheduleAfter(20, nil)
		c.ScheduleAfter(30, nil)
		_ = a
		c.Cancel(b)
		c.Advance(40)
		for {
			if _, ok := c.PopDue(); !ok {
				break
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state arm/cancel/fire allocates %v allocs/op, want 0", avg)
	}
}

// TestFreeListRecyclesCancelled checks that a cancelled entry is
// recycled into the pool immediately — no scrub or query needed — and
// reused by a later ScheduleAt rather than leaked.
func TestFreeListRecyclesCancelled(t *testing.T) {
	c := NewClock()
	id := c.ScheduleAfter(5, "x")
	c.Cancel(id)
	if c.freeLen != 1 {
		t.Fatalf("free list has %d entries after cancel, want 1", c.freeLen)
	}
	if c.free.payload != nil {
		t.Fatal("recycled entry still pins its payload")
	}
	if _, ok := c.NextExpiry(); ok {
		t.Fatal("cancelled timer still reported by NextExpiry")
	}
	c.ScheduleAfter(5, "y")
	if c.freeLen != 0 {
		t.Fatal("ScheduleAt did not reuse the free-list entry")
	}
}

// TestDrainedBurstPoolsFewPages arms 100,000 timers at once and fires
// them all. Afterwards the clock may keep the frontier page resident
// and at most two spare index pages: a burst must not hold its index
// for the clock's lifetime.
func TestDrainedBurstPoolsFewPages(t *testing.T) {
	const n = 100000
	c := NewClock()
	for i := 0; i < n; i++ {
		c.ScheduleAfter(Duration(1+i%1000), nil)
	}
	c.Advance(1000)
	fired := 0
	for {
		if _, ok := c.PopDue(); !ok {
			break
		}
		fired++
	}
	if fired != n || c.Pending() != 0 {
		t.Fatalf("fired %d of %d, %d still pending", fired, n, c.Pending())
	}
	if got := len(c.pagePool); got > 2 {
		t.Errorf("clock pools %d spare index pages after the burst, want <= 2", got)
	}
	if got := len(c.pages); got > 1 {
		t.Errorf("clock keeps %d index pages resident with nothing armed, want <= 1", got)
	}
}
