package vtime

import "container/heap"

// This file keeps the library's original container/heap timer queue as a
// test-only reference implementation. The production Clock is now a
// hierarchical timer wheel; the property tests in wheel_test.go and the
// storm test in freelist_test.go drive both structures in lockstep and
// require identical observable behavior — IDs, fire order, fire times,
// expiry reports — on randomized arm/cancel/advance sequences.

type refEntry struct {
	id      TimerID
	at      Time
	seq     int64
	payload any
	index   int
	dead    bool
}

type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refClock is the binary-heap reference model: same (at, seq) ordering,
// tombstone Cancel with head scrub, unpooled entries.
type refClock struct {
	now     Time
	heap    refHeap
	entries map[TimerID]*refEntry
	nextID  TimerID
	nextSeq int64
}

func newRefClock() *refClock {
	return &refClock{entries: make(map[TimerID]*refEntry)}
}

func (c *refClock) Now() Time { return c.now }

func (c *refClock) ScheduleAt(at Time, payload any) TimerID {
	c.nextID++
	c.nextSeq++
	e := &refEntry{id: c.nextID, at: at, seq: c.nextSeq, payload: payload}
	c.entries[e.id] = e
	heap.Push(&c.heap, e)
	return e.id
}

func (c *refClock) ScheduleAfter(d Duration, payload any) TimerID {
	return c.ScheduleAt(c.now.Add(d), payload)
}

func (c *refClock) Cancel(id TimerID) bool {
	e, ok := c.entries[id]
	if !ok || e.dead {
		return false
	}
	e.dead = true
	e.payload = nil
	delete(c.entries, id)
	return true
}

func (c *refClock) Pending() int { return len(c.entries) }

func (c *refClock) scrub() {
	for len(c.heap) > 0 && c.heap[0].dead {
		heap.Pop(&c.heap)
	}
}

func (c *refClock) NextExpiry() (Time, bool) {
	c.scrub()
	if len(c.heap) == 0 {
		return 0, false
	}
	return c.heap[0].at, true
}

func (c *refClock) PopDue() (Event, bool) {
	c.scrub()
	if len(c.heap) == 0 || c.heap[0].at > c.now {
		return Event{}, false
	}
	e := heap.Pop(&c.heap).(*refEntry)
	delete(c.entries, e.id)
	return Event{ID: e.id, At: e.at, Payload: e.payload}, true
}

func (c *refClock) PeekDue() (Event, bool) {
	c.scrub()
	if len(c.heap) == 0 || c.heap[0].at > c.now {
		return Event{}, false
	}
	e := c.heap[0]
	return Event{ID: e.id, At: e.at, Payload: e.payload}, true
}

func (c *refClock) Advance(d Duration) { c.now = c.now.Add(d) }

func (c *refClock) Step(d Duration) (advanced Duration, due bool) {
	target := c.now.Add(d)
	if at, ok := c.NextExpiry(); ok && at <= target {
		if at < c.now {
			return 0, true
		}
		advanced = at.Sub(c.now)
		c.now = at
		return advanced, true
	}
	c.now = target
	return d, false
}
