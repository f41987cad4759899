package vtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Microsecond)
	if c.Now() != Time(5*Microsecond) {
		t.Fatalf("Now = %v", c.Now())
	}
	c.AdvanceTo(Time(10 * Microsecond))
	if c.Now() != Time(10*Microsecond) {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards advance")
		}
	}()
	c.AdvanceTo(0)
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	c.Advance(-1)
}

func TestScheduleAndPop(t *testing.T) {
	c := NewClock()
	id := c.ScheduleAfter(10, "a")
	if id == 0 {
		t.Fatal("zero TimerID")
	}
	if _, ok := c.PopDue(); ok {
		t.Fatal("event due before its time")
	}
	c.Advance(10)
	ev, ok := c.PopDue()
	if !ok || ev.Payload != "a" || ev.At != 10 {
		t.Fatalf("PopDue = %+v, %v", ev, ok)
	}
	if _, ok := c.PopDue(); ok {
		t.Fatal("event popped twice")
	}
}

func TestPopOrderByTimeThenFIFO(t *testing.T) {
	c := NewClock()
	c.ScheduleAt(20, "late")
	c.ScheduleAt(10, "early1")
	c.ScheduleAt(10, "early2")
	c.AdvanceTo(30)
	var got []string
	for {
		ev, ok := c.PopDue()
		if !ok {
			break
		}
		got = append(got, ev.Payload.(string))
	}
	want := []string{"early1", "early2", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	id := c.ScheduleAfter(5, "x")
	if !c.Cancel(id) {
		t.Fatal("Cancel returned false for armed timer")
	}
	if c.Cancel(id) {
		t.Fatal("Cancel returned true twice")
	}
	c.Advance(10)
	if _, ok := c.PopDue(); ok {
		t.Fatal("cancelled timer fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestCancelHeadThenNextExpiry(t *testing.T) {
	c := NewClock()
	id := c.ScheduleAfter(5, "head")
	c.ScheduleAfter(7, "next")
	c.Cancel(id)
	at, ok := c.NextExpiry()
	if !ok || at != 7 {
		t.Fatalf("NextExpiry = %v, %v; want 7", at, ok)
	}
}

func TestStepStopsAtTimer(t *testing.T) {
	c := NewClock()
	c.ScheduleAfter(4, "t")
	adv, due := c.Step(10)
	if adv != 4 || !due {
		t.Fatalf("Step = %v, %v; want 4, true", adv, due)
	}
	if c.Now() != 4 {
		t.Fatalf("Now = %v", c.Now())
	}
	// A second step must not re-trigger: pop the event first.
	c.PopDue()
	adv, due = c.Step(10)
	if adv != 10 || due {
		t.Fatalf("Step = %v, %v; want 10, false", adv, due)
	}
}

func TestStepWithOverdueTimer(t *testing.T) {
	c := NewClock()
	c.ScheduleAt(0, "now")
	adv, due := c.Step(5)
	if adv != 0 || !due {
		t.Fatalf("Step = %v, %v; want 0, true", adv, due)
	}
}

func TestStepFullWhenNoTimers(t *testing.T) {
	c := NewClock()
	adv, due := c.Step(100)
	if adv != 100 || due {
		t.Fatalf("Step = %v, %v", adv, due)
	}
}

// TestNextExpiryEmpty walks the "no timer" answer through every way into
// and out of it.
func TestNextExpiryEmpty(t *testing.T) {
	c := NewClock()
	expect := func(step string, wantAt Time, wantOK bool) {
		t.Helper()
		if at, ok := c.NextExpiry(); ok != wantOK || (ok && at != wantAt) {
			t.Fatalf("%s: NextExpiry = (%v, %v), want (%v, %v)", step, at, ok, wantAt, wantOK)
		}
	}
	expect("fresh clock", 0, false)
	c.Advance(1000)
	expect("empty clock after an advance", 0, false)

	id := c.ScheduleAfter(500, "a")
	expect("arm right after an empty query", 1500, true)
	c.Cancel(id)
	expect("cancelled the only timer", 0, false)

	c.ScheduleAfter(10, "b")
	c.ScheduleAfter(20, "c")
	expect("two armed", 1010, true)
	c.Advance(20)
	for _, want := range []string{"b", "c"} {
		if ev, ok := c.PopDue(); !ok || ev.Payload != want {
			t.Fatalf("PopDue = (%+v, %v), want %s", ev, ok, want)
		}
	}
	expect("drained to empty", 0, false)
	if ev, ok := c.PeekDue(); ok {
		t.Fatalf("PeekDue on a drained clock = %+v", ev)
	}

	c.ScheduleAt(Infinity, "inf")
	expect("timer at Infinity", Infinity, true)
	c.Advance(1)
	expect("timer at Infinity after an advance", Infinity, true)
	if _, ok := c.PeekDue(); ok {
		t.Fatal("timer at Infinity reported due")
	}
}

func TestTimeFormatting(t *testing.T) {
	if got := Time(1500).String(); got != "1.50µs" {
		t.Fatalf("String = %q", got)
	}
	if got := Duration(2 * Millisecond).String(); got != "2000.00µs" {
		t.Fatalf("String = %q", got)
	}
	if got := Duration(25 * Millisecond).String(); got != "25.00ms" {
		t.Fatalf("String = %q", got)
	}
	if got := Time(12 * int64(Second)).String(); got != "12.00s" {
		t.Fatalf("String = %q", got)
	}
	if got := Duration(-1500).String(); got != "-1.50µs" {
		t.Fatalf("String = %q", got)
	}
	if Time(3000).Micros() != 3.0 {
		t.Fatal("Micros wrong")
	}
}

func TestAddSub(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != 150 || b.Sub(a) != 50 {
		t.Fatalf("Add/Sub: %v %v", b, b.Sub(a))
	}
}

// Property: popping all events after advancing past every expiry yields
// them sorted by (time, insertion order).
func TestPopOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		c := NewClock()
		type item struct {
			at  Time
			seq int
		}
		var want []item
		for i, r := range raw {
			at := Time(r)
			c.ScheduleAt(at, i)
			want = append(want, item{at, i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		c.AdvanceTo(Time(1 << 20))
		for _, w := range want {
			ev, ok := c.PopDue()
			if !ok || ev.Payload.(int) != w.seq {
				return false
			}
		}
		_, ok := c.PopDue()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset removes exactly that subset.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		c := NewClock()
		rng := rand.New(rand.NewSource(seed))
		ids := map[TimerID]bool{} // id -> cancelled
		for i := 0; i < int(n); i++ {
			id := c.ScheduleAfter(Duration(rng.Intn(100)), i)
			ids[id] = rng.Intn(2) == 0
		}
		for id, cancel := range ids {
			if cancel && !c.Cancel(id) {
				return false
			}
		}
		c.AdvanceTo(Time(1000))
		survived := 0
		for {
			_, ok := c.PopDue()
			if !ok {
				break
			}
			survived++
		}
		wantSurvive := 0
		for _, cancelled := range ids {
			if !cancelled {
				wantSurvive++
			}
		}
		return survived == wantSurvive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Step never moves past the next expiry and never backwards.
func TestStepBoundedProperty(t *testing.T) {
	f := func(steps []uint8, timer uint8) bool {
		c := NewClock()
		c.ScheduleAfter(Duration(timer), "t")
		for _, st := range steps {
			before := c.Now()
			adv, due := c.Step(Duration(st))
			if adv < 0 || c.Now() != before.Add(adv) {
				return false
			}
			if due && c.Now() > Time(timer) {
				return false
			}
			if due {
				c.PopDue()
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
