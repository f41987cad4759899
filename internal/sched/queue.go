// Package sched provides the priority-indexed FIFO queue used for the
// ready queue (and, per virtual CPU, the SMP run queues). The library's
// wait queues are intrusive lists threaded through the TCBs instead (see
// internal/core/waitlist.go), and keep this queue's order.
//
// The structure matches the paper's scheduler: one FIFO per priority level
// plus a bitmap of non-empty levels, so that selecting the next thread is
// a find-highest-set-bit followed by a dequeue. Higher numeric priority is
// more urgent.
//
// Each level is a ring-buffer deque (head index, item count, power-of-two
// capacity), so Enqueue, EnqueueHead and DequeueMax are O(1) with zero
// steady-state allocations — the host-side analogue of the paper's claim
// that ready-queue operations cost a fixed handful of instructions. The
// virtual cost of a queue operation is charged by the caller (the core
// kernel); nothing here touches the cost model.
//
// Remove searches the one level the caller names; RemoveAny, for an item
// queued at a level the caller does not know (a perverted policy's
// placement), scans the non-empty levels of the bitmap. The queue counts
// its picks and the entries its searches compare, so the O(1) claim is
// checked by a count, not only by a clock.
package sched

import (
	"fmt"
	"math/bits"
)

// Priority bounds. The POSIX.4a draft requires at least 32 distinct
// priority values for SCHED_FIFO/SCHED_RR; the library exposes exactly
// that range.
const (
	MinPrio     = 0
	MaxPrio     = 31
	NumPrio     = MaxPrio - MinPrio + 1
	DefaultPrio = 16
)

// minRingCap is the initial capacity of a level's ring buffer. Must be a
// power of two.
const minRingCap = 8

// ValidPrio reports whether p is a legal priority.
func ValidPrio(p int) bool { return p >= MinPrio && p <= MaxPrio }

// ring is one priority level's FIFO: a circular buffer with a head index
// and an item count. Capacity is always a power of two, so positions are
// reduced with a mask instead of a division.
type ring[T comparable] struct {
	buf  []T
	head int // physical index of the first (oldest) item
	n    int
}

// at returns the item at logical offset i (0 = head).
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Stats are cumulative host-side counters of one queue's ring behaviour,
// exposed so the harness can report per-run queue pressure.
type Stats struct {
	// MaxDepth is the peak number of items queued at once.
	MaxDepth int64
	// Wraps counts ring wrap-arounds: writes that crossed the edge of a
	// level's circular buffer (either end).
	Wraps int64
	// Grows counts ring capacity doublings.
	Grows int64
	// Picks counts the items DequeueMax handed out: the dispatcher's
	// picks, for a ready queue.
	Picks int64
	// Scanned counts the ring entries compared by Remove, RemoveAny and
	// Contains while searching for an item, plus the levels Nth steps
	// through to reach its index.
	Scanned int64
}

// Queue is a priority queue of distinct items with FIFO order within each
// priority level. Items must be comparable; an item may be queued at most
// once (enforced only as far as Remove semantics require — callers keep
// that invariant).
type Queue[T comparable] struct {
	levels [NumPrio]ring[T]
	bitmap uint32
	size   int
	stats  Stats
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// LenAt reports the number of items queued at priority p.
func (q *Queue[T]) LenAt(p int) int { return q.levels[p-MinPrio].n }

// Stats returns the queue's cumulative host-side counters.
func (q *Queue[T]) Stats() Stats { return q.stats }

func (q *Queue[T]) checkPrio(p int) {
	if !ValidPrio(p) {
		panic(fmt.Sprintf("sched: priority %d out of range [%d,%d]", p, MinPrio, MaxPrio))
	}
}

// grow doubles (or initially allocates) a ring's buffer, re-packing the
// items at the front.
func (q *Queue[T]) grow(r *ring[T]) {
	nc := len(r.buf) * 2
	if nc == 0 {
		nc = minRingCap
	}
	nb := make([]T, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf = nb
	r.head = 0
	q.stats.Grows++
}

// noteDepth updates the peak-depth counter after an insertion.
func (q *Queue[T]) noteDepth() {
	if int64(q.size) > q.stats.MaxDepth {
		q.stats.MaxDepth = int64(q.size)
	}
}

// Enqueue appends the item at the tail of its priority level — the normal
// position for a thread that yields, exhausts its time slice, or becomes
// ready.
func (q *Queue[T]) Enqueue(x T, p int) {
	q.checkPrio(p)
	i := p - MinPrio
	r := &q.levels[i]
	if r.n == len(r.buf) {
		q.grow(r)
	}
	pos := (r.head + r.n) & (len(r.buf) - 1)
	if pos == 0 && r.n > 0 {
		q.stats.Wraps++
	}
	r.buf[pos] = x
	r.n++
	q.bitmap |= 1 << uint(i)
	q.size++
	q.noteDepth()
}

// EnqueueHead inserts the item at the head of its priority level — the
// position for a thread that was preempted, or whose boosted priority is
// being reset ("neither should any other thread at the same priority level
// be scheduled instead of the current thread when the priority is reset").
func (q *Queue[T]) EnqueueHead(x T, p int) {
	q.checkPrio(p)
	i := p - MinPrio
	r := &q.levels[i]
	if r.n == len(r.buf) {
		q.grow(r)
	}
	mask := len(r.buf) - 1
	r.head = (r.head - 1) & mask
	if r.head == mask && r.n > 0 {
		q.stats.Wraps++
	}
	r.buf[r.head] = x
	r.n++
	q.bitmap |= 1 << uint(i)
	q.size++
	q.noteDepth()
}

// MaxLevel returns the highest non-empty priority, or ok=false when the
// queue is empty.
func (q *Queue[T]) MaxLevel() (p int, ok bool) {
	if q.bitmap == 0 {
		return 0, false
	}
	return MinPrio + 31 - bits.LeadingZeros32(q.bitmap), true
}

// PeekMax returns the item at the head of the highest non-empty level
// without removing it.
func (q *Queue[T]) PeekMax() (x T, p int, ok bool) {
	if q.bitmap == 0 {
		var zero T
		return zero, 0, false
	}
	i := 31 - bits.LeadingZeros32(q.bitmap)
	r := &q.levels[i]
	return r.buf[r.head], i + MinPrio, true
}

// popHead removes and returns the head of level i, maintaining the bitmap
// and size.
func (q *Queue[T]) popHead(i int) T {
	r := &q.levels[i]
	x := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 {
		q.bitmap &^= 1 << uint(i)
	}
	q.size--
	return x
}

// DequeueMax removes and returns the head of the highest non-empty level.
func (q *Queue[T]) DequeueMax() (x T, p int, ok bool) {
	if q.bitmap == 0 {
		var zero T
		return zero, 0, false
	}
	i := 31 - bits.LeadingZeros32(q.bitmap)
	q.stats.Picks++
	return q.popHead(i), i + MinPrio, true
}

// DequeueAt removes and returns the head of level p.
func (q *Queue[T]) DequeueAt(p int) (x T, ok bool) {
	q.checkPrio(p)
	i := p - MinPrio
	if q.levels[i].n == 0 {
		var zero T
		return zero, false
	}
	return q.popHead(i), true
}

// removeAtOffset deletes the item at logical offset j of level i by
// shifting the shorter side of the ring toward the gap.
func (q *Queue[T]) removeAtOffset(i, j int) {
	r := &q.levels[i]
	mask := len(r.buf) - 1
	var zero T
	if j < r.n-1-j {
		// Shift the head side forward.
		for k := j; k > 0; k-- {
			r.buf[(r.head+k)&mask] = r.buf[(r.head+k-1)&mask]
		}
		r.buf[r.head] = zero
		r.head = (r.head + 1) & mask
	} else {
		// Shift the tail side back.
		for k := j; k < r.n-1; k++ {
			r.buf[(r.head+k)&mask] = r.buf[(r.head+k+1)&mask]
		}
		r.buf[(r.head+r.n-1)&mask] = zero
	}
	r.n--
	if r.n == 0 {
		q.bitmap &^= 1 << uint(i)
	}
	q.size--
}

// offsetIn returns the item's logical offset in level i, or -1 when it is
// not queued there.
func (q *Queue[T]) offsetIn(x T, i int) int {
	r := &q.levels[i]
	for j := 0; j < r.n; j++ {
		if r.at(j) == x {
			q.stats.Scanned += int64(j + 1)
			return j
		}
	}
	q.stats.Scanned += int64(r.n)
	return -1
}

// find returns the level and offset the item is queued at, scanning the
// non-empty levels; j is -1 when it is not queued.
func (q *Queue[T]) find(x T) (i, j int) {
	for bm := q.bitmap; bm != 0; bm &^= 1 << uint(i) {
		i = bits.TrailingZeros32(bm)
		if j = q.offsetIn(x, i); j >= 0 {
			return i, j
		}
	}
	return 0, -1
}

// Remove deletes the item from level p, reporting whether it was present.
// The level is known to the caller, so only that level's ring is searched.
func (q *Queue[T]) Remove(x T, p int) bool {
	q.checkPrio(p)
	i := p - MinPrio
	j := q.offsetIn(x, i)
	if j < 0 {
		return false
	}
	q.removeAtOffset(i, j)
	return true
}

// RemoveAny deletes the item from whatever level it is queued at,
// reporting the level and whether it was found. Used when the caller does
// not know the level the item was queued at.
func (q *Queue[T]) RemoveAny(x T) (p int, ok bool) {
	i, j := q.find(x)
	if j < 0 {
		return 0, false
	}
	q.removeAtOffset(i, j)
	return i + MinPrio, true
}

// Contains reports whether the item is queued at any level.
func (q *Queue[T]) Contains(x T) bool {
	_, j := q.find(x)
	return j >= 0
}

// Nth returns the n-th item in scheduling order (highest priority first,
// FIFO within a level). Used by the random-switch perverted policy to pick
// a uniformly random ready thread deterministically from a seeded PRNG.
func (q *Queue[T]) Nth(n int) (x T, p int, ok bool) {
	if n < 0 || n >= q.size {
		var zero T
		return zero, 0, false
	}
	for i := NumPrio - 1; i >= 0; i-- {
		q.stats.Scanned++
		r := &q.levels[i]
		if n < r.n {
			return r.at(n), i + MinPrio, true
		}
		n -= r.n
	}
	var zero T
	return zero, 0, false
}

// Items returns all queued items in scheduling order. Used by diagnostics
// (deadlock reports) and tests.
func (q *Queue[T]) Items() []T {
	out := make([]T, 0, q.size)
	for i := NumPrio - 1; i >= 0; i-- {
		r := &q.levels[i]
		for j := 0; j < r.n; j++ {
			out = append(out, r.at(j))
		}
	}
	return out
}
