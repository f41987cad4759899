package sched

import "testing"

// wrapRing drives a level's ring past its physical end: fill to the
// initial capacity, then slide the window (dequeue one, enqueue one) so
// head walks around the buffer edge repeatedly.
func wrapRing(t *testing.T, q *Queue[int], prio, slides int) {
	t.Helper()
	next := 0
	for ; next < minRingCap; next++ {
		q.Enqueue(next, prio)
	}
	for s := 0; s < slides; s++ {
		x, _, ok := q.DequeueMax()
		if !ok || x != next-minRingCap {
			t.Fatalf("slide %d: dequeued %d,%v, want %d", s, x, ok, next-minRingCap)
		}
		q.Enqueue(next, prio)
		next++
	}
}

// TestRingFIFOAcrossWraparound checks that FIFO order within a level
// survives many wrap-arounds of the circular buffer.
func TestRingFIFOAcrossWraparound(t *testing.T) {
	var q Queue[int]
	const slides = 5 * minRingCap
	wrapRing(t, &q, DefaultPrio, slides)
	if q.Stats().Wraps == 0 {
		t.Fatalf("no wraps counted after %d slides over a %d-slot ring", slides, minRingCap)
	}
	for want := slides; ; want++ {
		x, _, ok := q.DequeueMax()
		if !ok {
			if want != slides+minRingCap {
				t.Fatalf("queue drained after %d items, want %d", want-slides, minRingCap)
			}
			break
		}
		if x != want {
			t.Fatalf("dequeued %d, want %d: FIFO broken across wrap", x, want)
		}
	}
}

// TestEnqueueHeadOrdering checks the preemption case: a head-inserted
// item is dequeued before everything already queued at its level, and
// tail order behind it is untouched.
func TestEnqueueHeadOrdering(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, DefaultPrio)
	q.Enqueue(2, DefaultPrio)
	q.EnqueueHead(0, DefaultPrio) // the preempted thread goes first
	q.Enqueue(3, DefaultPrio)
	for want := 0; want <= 3; want++ {
		x, _, ok := q.DequeueMax()
		if !ok || x != want {
			t.Fatalf("dequeued %d,%v, want %d", x, ok, want)
		}
	}

	// Head insertion into an empty and a full (about-to-grow) level.
	q.EnqueueHead(10, 3)
	for i := 0; i < minRingCap; i++ {
		q.Enqueue(11+i, 3)
	}
	q.EnqueueHead(9, 3) // forces growth with a wrapped head
	if x, ok := q.DequeueAt(3); !ok || x != 9 {
		t.Fatalf("DequeueAt = %d,%v, want 9", x, ok)
	}
	if x, ok := q.DequeueAt(3); !ok || x != 10 {
		t.Fatalf("DequeueAt = %d,%v, want 10", x, ok)
	}
}

// TestRemoveDuringWrap removes items from the middle of a level whose
// ring is wrapped (head near the buffer end, tail wrapped to the front),
// hitting both the shift-head-side and shift-tail-side paths.
func TestRemoveDuringWrap(t *testing.T) {
	var q Queue[int]
	wrapRing(t, &q, DefaultPrio, minRingCap-2) // head is now near the end
	items := q.Items()
	if len(items) != minRingCap {
		t.Fatalf("setup: %d items, want %d", len(items), minRingCap)
	}

	// Remove one item near the head (shifts head side) and one near the
	// tail (shifts tail side).
	for _, victim := range []int{items[1], items[len(items)-2]} {
		if !q.Remove(victim, DefaultPrio) {
			t.Fatalf("Remove(%d) failed", victim)
		}
		if q.Contains(victim) {
			t.Fatalf("Contains(%d) after Remove", victim)
		}
	}

	// Remaining order must be the original minus the victims.
	want := []int{}
	for i, x := range items {
		if i != 1 && i != len(items)-2 {
			want = append(want, x)
		}
	}
	got := q.Items()
	if len(got) != len(want) {
		t.Fatalf("%d items left, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after removal: %v, want %v", got, want)
		}
	}
}

// TestQueueStatsCounters checks MaxDepth, Wraps and Grows.
func TestQueueStatsCounters(t *testing.T) {
	var q Queue[int]
	if s := q.Stats(); s != (Stats{}) {
		t.Fatalf("fresh queue stats %+v, want zero", s)
	}
	for i := 0; i < minRingCap+1; i++ { // one past capacity: forces a grow
		q.Enqueue(i, DefaultPrio)
	}
	q.Enqueue(100, DefaultPrio+1)
	s := q.Stats()
	if s.MaxDepth != int64(minRingCap+2) {
		t.Fatalf("MaxDepth %d, want %d", s.MaxDepth, minRingCap+2)
	}
	// Initial allocation + doubling at DefaultPrio, initial allocation at
	// DefaultPrio+1.
	if s.Grows != 3 {
		t.Fatalf("Grows %d, want 3", s.Grows)
	}
	for !q.Empty() {
		q.DequeueMax()
	}
	// Dequeues count as picks and change no ring-pressure counter.
	want := s
	want.Picks += int64(minRingCap + 2)
	if got := q.Stats(); got != want {
		t.Fatalf("dequeues changed stats: %+v vs %+v", got, want)
	}
	// Slide a full window to force wraps.
	wrapped := q.Stats().Wraps
	wrapRing(t, &q, DefaultPrio, 4*minRingCap)
	if q.Stats().Wraps <= wrapped {
		t.Fatalf("Wraps did not advance: %d", q.Stats().Wraps)
	}
	// MaxDepth is cumulative: a shallower second run must not lower it.
	if q.Stats().MaxDepth != s.MaxDepth {
		t.Fatalf("MaxDepth fell to %d, want %d retained", q.Stats().MaxDepth, s.MaxDepth)
	}
}

// TestQueueZeroAllocHotPath pins the tentpole claim: Enqueue, DequeueMax
// and EnqueueHead allocate nothing in steady state.
func TestQueueZeroAllocHotPath(t *testing.T) {
	var q Queue[int]
	// Warm up so every touched ring reaches its steady-state capacity.
	for i := 0; i < minRingCap; i++ {
		q.Enqueue(i, DefaultPrio)
		q.Enqueue(i, DefaultPrio+1)
	}
	for !q.Empty() {
		q.DequeueMax()
	}

	if n := testing.AllocsPerRun(200, func() {
		q.Enqueue(1, DefaultPrio)
		q.DequeueMax()
	}); n != 0 {
		t.Fatalf("Enqueue+DequeueMax allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		q.EnqueueHead(1, DefaultPrio)
		q.DequeueMax()
	}); n != 0 {
		t.Fatalf("EnqueueHead+DequeueMax allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		q.Enqueue(1, DefaultPrio)
		q.Enqueue(2, DefaultPrio+1)
		q.Enqueue(3, DefaultPrio)
		for !q.Empty() {
			q.DequeueMax()
		}
	}); n != 0 {
		t.Fatalf("mixed-level churn allocates %v/op, want 0", n)
	}
}
