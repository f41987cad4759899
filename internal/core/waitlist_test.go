package core

import (
	"math/rand"
	"slices"
	"testing"

	"pthreads/internal/sched"
)

// The wait list's order is sched.Queue's: highest level first, FIFO
// within a level. The first test checks the list against sched.Queue
// itself as the oracle; the others pin the order each kind of waiter
// observes — cond waiters, their requeue onto the mutex at a broadcast,
// joiners — and the level a cond waiter queues at.

// listItems walks l from head to tail, checking the back links, the tail
// and the depth on the way.
func listItems(t *testing.T, l *waitList) []*Thread {
	t.Helper()
	var out []*Thread
	var prev *Thread
	for th := l.head; th != nil; th = th.qNext {
		if th.qPrev != prev {
			t.Fatalf("item %d: back link broken", len(out))
		}
		out = append(out, th)
		prev = th
	}
	if l.tail != prev {
		t.Fatalf("tail is not the last item")
	}
	if l.depth != len(out) {
		t.Fatalf("depth %d, but %d items linked", l.depth, len(out))
	}
	return out
}

// TestFDWaitListMatchesQueue drives a wait list — the one every mutex,
// cond, join and descriptor wait uses — and a sched.Queue through the
// same random pushes (levels 0–31), pops, removals from the middle and
// reprioritizations, and compares the full order and the length after
// every operation.
func TestFDWaitListMatchesQueue(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l waitList
		var q sched.Queue[*Thread]
		var members []*Thread
		level := make(map[*Thread]int)
		pick := func() (*Thread, int) {
			i := rng.Intn(len(members))
			return members[i], i
		}
		drop := func(i int) {
			members[i] = members[len(members)-1]
			members = members[:len(members)-1]
		}
		for step := 0; step < 400; step++ {
			r := rng.Intn(20)
			switch {
			case r < 10 || len(members) == 0:
				th, lvl := new(Thread), rng.Intn(sched.NumPrio)
				l.push(th, lvl)
				q.Enqueue(th, lvl)
				members = append(members, th)
				level[th] = lvl
			case r < 13:
				want, _, _ := q.DequeueMax()
				got := l.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop took a different waiter than sched.Queue", seed, step)
				}
				drop(slices.Index(members, got))
			case r < 16:
				th, i := pick()
				l.unlink(th)
				if !q.Remove(th, level[th]) {
					t.Fatalf("seed %d step %d: oracle lost a member", seed, step)
				}
				drop(i)
			default:
				th, _ := pick()
				lvl := rng.Intn(sched.NumPrio)
				l.unlink(th)
				l.push(th, lvl)
				q.Remove(th, level[th])
				q.Enqueue(th, lvl)
				level[th] = lvl
			}
			got, want := listItems(t, &l), q.Items()
			if len(got) != q.Len() || !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: list order differs from sched.Queue (len %d vs %d)", seed, step, len(got), q.Len())
			}
		}
	}
}

// waitOrder records the order in which waiters finish their waits.
type waitOrder struct {
	s     *System
	names []string
}

// worker creates a thread of priority prio that runs body and then
// records its name. Workers outrank main, so each runs as it is created:
// arrival order is creation order.
func (o *waitOrder) worker(name string, prio int, body func()) *Thread {
	attr := DefaultAttr()
	attr.Name, attr.Priority = name, prio
	th, err := o.s.Create(attr, func(any) any {
		body()
		o.names = append(o.names, name)
		return nil
	}, nil)
	if err != nil {
		panic(err)
	}
	return th
}

// condWaitOnce locks m, waits on c once and unlocks.
func condWaitOnce(c *Cond, m *Mutex) func() {
	return func() {
		m.Lock()
		c.Wait(m)
		m.Unlock()
	}
}

func runWaitOrder(t *testing.T, main func(s *System, o *waitOrder)) []string {
	t.Helper()
	s := New(Config{})
	o := &waitOrder{s: s}
	if err := s.Run(func() { main(s, o) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return o.names
}

// TestCondSignalArrivalOrder parks three equal-priority waiters on one
// condition variable; three signals wake them in arrival order.
func TestCondSignalArrivalOrder(t *testing.T) {
	got := runWaitOrder(t, func(s *System, o *waitOrder) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		prio := s.Self().Priority() + 1
		var ths []*Thread
		for _, name := range []string{"a", "b", "c"} {
			ths = append(ths, o.worker(name, prio, condWaitOnce(c, m)))
		}
		for range ths {
			m.Lock()
			c.Signal()
			m.Unlock() // the signalled waiter outranks main and runs here
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if want := []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Errorf("wake order %v, want arrival order %v", got, want)
	}
}

// TestBroadcastRequeueOrder broadcasts to four waiters while main holds
// the mutex, so all four queue on it and each unlock grants it to the
// next. The three of equal priority are granted it in arrival order;
// the fourth, of higher priority but the last to arrive, goes first.
func TestBroadcastRequeueOrder(t *testing.T) {
	got := runWaitOrder(t, func(s *System, o *waitOrder) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		prio := s.Self().Priority() + 1
		var ths []*Thread
		for _, name := range []string{"a", "b", "c"} {
			ths = append(ths, o.worker(name, prio, condWaitOnce(c, m)))
		}
		ths = append(ths, o.worker("high", prio+1, condWaitOnce(c, m)))
		m.Lock()
		c.Broadcast()
		if c.Waiters() != 0 || m.waiters.depth != 4 {
			t.Errorf("after Broadcast: %d waiters on the cond, %d on the mutex; want 0 and 4", c.Waiters(), m.waiters.depth)
		}
		m.Unlock()
		for _, th := range ths {
			s.Join(th)
		}
	})
	if want := []string{"high", "a", "b", "c"}; !slices.Equal(got, want) {
		t.Errorf("grant order %v, want %v", got, want)
	}
}

// TestJoinArrivalOrder parks three equal-priority joiners on one target;
// they wake at its exit in arrival order.
func TestJoinArrivalOrder(t *testing.T) {
	got := runWaitOrder(t, func(s *System, o *waitOrder) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() - 1 // runs once main blocks
		target, err := s.Create(attr, func(any) any { return "done" }, nil)
		if err != nil {
			panic(err)
		}
		prio := s.Self().Priority() + 1
		var ths []*Thread
		for _, name := range []string{"a", "b", "c"} {
			ths = append(ths, o.worker(name, prio, func() {
				if v, err := s.Join(target); v != "done" || err != nil {
					t.Errorf("Join = %v, %v; want done, nil", v, err)
				}
			}))
		}
		if d := target.joiners.depth; d != 3 {
			t.Errorf("%d joiners queued, want 3", d)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if want := []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Errorf("wake order %v, want arrival order %v", got, want)
	}
}

// TestCondWaiterQueuesAtRestoredPriority lets two waiters hold a
// priority-ceiling mutex (ceiling 25) as they enter the wait: the
// release restores each one's own priority, and the waiter queues at
// that priority, so the more urgent one is signalled first although it
// arrived second.
func TestCondWaiterQueuesAtRestoredPriority(t *testing.T) {
	got := runWaitOrder(t, func(s *System, o *waitOrder) {
		m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolCeiling, Ceiling: 25})
		c := s.NewCond("c")
		prio := s.Self().Priority() + 1
		ths := []*Thread{
			o.worker("low", prio, condWaitOnce(c, m)),
			o.worker("high", prio+1, condWaitOnce(c, m)),
		}
		for _, th := range ths {
			if q := th.qLevel; int(q) != th.Priority() {
				t.Errorf("%v queued at level %d, priority %d", th, q, th.Priority())
			}
		}
		for range ths {
			m.Lock()
			c.Signal()
			m.Unlock()
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if want := []string{"high", "low"}; !slices.Equal(got, want) {
		t.Errorf("wake order %v, want %v", got, want)
	}
}
