// Package vtime provides the deterministic virtual clock that drives the
// simulated uniprocessor on which the Pthreads library runs.
//
// All latencies reported by the library and its benchmark harness are
// expressed in virtual nanoseconds. Time advances only when the machine
// model charges cost for executed work or when the system idles forward to
// the next pending timer event. This makes every run of a program — and in
// particular every benchmark and every perverted-scheduling debug run —
// exactly reproducible, which is one of the paper's stated goals for its
// debugging policies.
//
// The timer queue is a hierarchical timer wheel (Varghese & Lauck): eleven
// levels of 64 slots each, with a per-level occupancy bitmap and one
// summary word naming the non-empty levels. Level 0 slots are exact
// one-nanosecond ticks; level l slots span 64^l nanoseconds. Arm and
// cancel are O(1) (entries are intrusively doubly-linked, so cancel
// unlinks and recycles immediately), and advancing cascades each entry at
// most once per level, so draining n timers costs O(n·L) total rather than
// the binary heap's O(n·log n). A due region holding a single entry moves
// it straight to the due list instead of cascading it level by level.
//
// The kernel polls the queue at every exit and idle step, and most polls
// find nothing. The clock keeps a bound, an instant before which no wheel
// entry expires: the base of the earliest wheel region when a poll last
// stopped short of it, or an earlier expiry armed since. A poll made
// before the clock reaches the bound is one compare.
//
// Unlike a classic wheel, expiry remains exact: NextExpiry reports the
// precise timestamp of the earliest timer (memoized between structural
// changes), so Step and the idle loop stop at bit-identical instants and
// the determinism contract is untouched. WheelStats counts the wheel's
// own host work, so that its O(1) claims can be gated exactly.
package vtime

import (
	"fmt"
	"math/bits"
)

// Time is an absolute virtual timestamp in nanoseconds since system start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Infinity is a timestamp later than any event the simulator will produce.
const Infinity Time = 1<<63 - 1

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros returns the time as a floating-point count of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String renders the timestamp in microseconds (the unit of the paper's
// evaluation) below ten milliseconds, and in milliseconds above.
func (t Time) String() string { return fmtNS(int64(t)) }

// Micros returns the duration as a floating-point count of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// String renders the duration like Time.String.
func (d Duration) String() string { return fmtNS(int64(d)) }

// fmtNS renders nanoseconds adaptively: µs below 10ms, ms below 10s,
// seconds above.
func fmtNS(ns int64) string {
	f := float64(ns)
	switch {
	case f < 0:
		return "-" + fmtNS(-ns)
	case f < 1e7:
		return fmt.Sprintf("%.2fµs", f/1e3)
	case f < 1e10:
		return fmt.Sprintf("%.2fms", f/1e6)
	default:
		return fmt.Sprintf("%.2fs", f/1e9)
	}
}

// TimerID names a scheduled timer event. The zero value is never a valid
// timer.
type TimerID int64

// Event is a timer event that has come due.
type Event struct {
	ID      TimerID
	At      Time // the scheduled expiry (<= clock.Now() when popped)
	Payload any
}

// Wheel geometry. Each level has 64 slots; level l slot width is 64^l ns.
// Eleven levels cover bit 62, which is the highest bit any valid timestamp
// (at most Infinity = 2^63-1) can differ from the anchor in.
const (
	levelBits  = 6
	slotCount  = 1 << levelBits
	slotMask   = slotCount - 1
	levelCount = 11
)

// Sentinel values for timerEntry.level marking list membership outside the
// wheel proper.
const (
	levelDue  = -1 // on the due list (expiry <= now)
	levelFree = -2 // on the free list
)

type timerEntry struct {
	id      TimerID
	at      Time
	seq     int64 // tiebreaker: FIFO among events at the same instant
	payload any

	// Intrusive doubly-linked list hooks. An entry is always on exactly
	// one list: a wheel slot (level >= 0, at that level/slot), the due
	// list (levelDue), or the free list (levelFree, next-linked only).
	prev, next *timerEntry
	level      int8
	slot       int8
}

// The live-entry index maps TimerID -> *timerEntry for Cancel. IDs are
// handed out monotonically, so a hash map would send every arm to a
// random bucket — one cache miss per operation once the table is large.
// Instead the index is paged: 256 consecutive IDs share one page, so the
// arm/cancel/fire hot path stays on a single cached page, and a page is
// recycled through a small pool the moment its last live entry leaves.
// Lookup is two shifts and two loads; the small page map is only
// consulted when the ID crosses a page boundary (once per 256 arms on
// the hot path). A page is 2,056 B (the runtime's 2,304 B size class),
// so a clock with a few armed timers holds a few KiB of index, and the
// pool keeps at most maxPooledPages of them once a burst of armed
// timers has drained.
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	maxPooledPages = 2
)

type timerPage struct {
	slots [pageSize]*timerEntry
	live  int
}

// timerList is a doubly-linked FIFO of timer entries. Entries are appended
// at the tail, so a slot list is always in ascending seq order.
type timerList struct {
	head, tail *timerEntry
}

func (l *timerList) append(e *timerEntry) {
	e.prev, e.next = l.tail, nil
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
}

func (l *timerList) remove(e *timerEntry) {
	if e.prev == nil {
		l.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		l.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// Clock is the virtual clock: a monotone timestamp plus a deterministic
// timer queue. Clock is not safe for concurrent use; in this system it is
// only ever touched by the single running thread, which is exactly the
// uniprocessor discipline the paper's monolithic monitor assumes.
type Clock struct {
	now Time

	// wt is the wheel anchor. Invariants: wt <= now always; every entry
	// stored in the wheel has at > wt and sits in the canonical slot for
	// its timestamp relative to wt (same enclosing window, strictly after
	// the anchor's position at its level); every entry with at <= wt is
	// on the due list, kept in (at, seq) order. The anchor trails now
	// lazily and is caught up by the first poll that reaches the bound,
	// or by an arm into an empty wheel.
	wt       Time
	wheel    [levelCount][slotCount]timerList
	occupied [levelCount]uint64
	levels   uint16 // bit l set while occupied[l] != 0
	due      timerList

	// bound is at or below the expiry of every wheel entry (Infinity once
	// the wheel is empty), so until now reaches it no wheel entry is due
	// and a poll costs one compare. fixup sets it where it stops short:
	// the base of the earliest region, or the expiry of a region's only
	// entry. place lowers it to each expiry it files; a cancel leaves it
	// low, which is only conservative.
	bound Time
	stats WheelStats

	// Paged TimerID -> entry index (see timerPage). lastIdx/lastPage
	// memoize the most recently touched page; pagePool recycles up to
	// maxPooledPages emptied pages, so a steady-state workload never
	// allocates one and a drained burst does not keep its pages.
	pages    map[TimerID]*timerPage
	lastIdx  TimerID
	lastPage *timerPage
	pagePool []*timerPage
	npending int

	nextID  TimerID
	nextSeq int64

	// cachedNext memoizes the exact earliest expiry across all armed
	// timers, valid while cachedOK. Arming an earlier timer lowers it;
	// cancelling or popping a timer at the cached instant invalidates
	// it. Advancing the clock never changes the armed set, so the memo
	// survives fixup — this is what keeps NextExpiry O(1) even when the
	// earliest region is a populous far-future slot. "No timer" needs no
	// memo beside it: npending == 0 answers it exactly, and arming
	// (the only way out of it) bumps npending.
	cachedNext Time
	cachedOK   bool

	// gov, when non-nil, arbitrates multi-host advancement (see
	// governor.go); lease is the frontier below which this clock may
	// advance without asking it. Both are dormant in single-host runs.
	gov   Governor
	lease Time

	// free is the timerEntry free list (next-linked). Entries are
	// recycled the moment they leave the queue — fired via PopDue or
	// disarmed via Cancel — so a steady-state arm/cancel/fire workload
	// allocates nothing and a cancel-heavy storm cannot accumulate
	// tombstones. The list needs no lock: the clock is only ever touched
	// by the single running thread (uniprocessor discipline).
	free    *timerEntry
	freeLen int
	liveLen int

	// adv is the governed advance in progress (governor.go), last so the
	// fields above keep their offsets in single-host runs.
	adv advance
}

// NewClock returns a clock at time zero with no timers armed.
func NewClock() *Clock {
	return &Clock{pages: make(map[TimerID]*timerPage), lastIdx: -1, bound: Infinity}
}

// WheelStats counts the host work the timer queue has done since the
// clock was made. None of it is simulated time: these are the loops the
// queue's O(1) claims are about, counted so that a gate can hold them
// exactly where host nanoseconds are only a noisy tripwire.
type WheelStats struct {
	RegionScans int64 // lookups of the earliest occupied wheel region
	Refiled     int64 // entries a cascade moved to a finer level
	SlotScanned int64 // entries NextExpiry read in a coarse slot
	BoundPolls  int64 // polls answered by the bound alone
}

// WheelStats returns the counts of the queue's host work so far.
func (c *Clock) WheelStats() WheelStats { return c.stats }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// page returns the index page holding id, or nil if no entry in that ID
// range is live.
func (c *Clock) page(id TimerID) *timerPage {
	idx := id >> pageBits
	if idx == c.lastIdx {
		return c.lastPage
	}
	pg := c.pages[idx]
	if pg != nil {
		c.lastIdx, c.lastPage = idx, pg
	}
	return pg
}

// indexPut files a live entry under its ID, creating (or recycling) the
// page on a boundary crossing.
func (c *Clock) indexPut(e *timerEntry) {
	idx := e.id >> pageBits
	pg := c.page(e.id)
	if pg == nil {
		if n := len(c.pagePool); n > 0 {
			pg = c.pagePool[n-1]
			c.pagePool[n-1] = nil
			c.pagePool = c.pagePool[:n-1]
		} else {
			pg = new(timerPage)
		}
		c.pages[idx] = pg
		c.lastIdx, c.lastPage = idx, pg
		// Crossing into a fresh page: the previous frontier page may have
		// been held resident while empty (see indexDel); release it now
		// that no future ID can land there.
		if prev, ok := c.pages[idx-1]; ok && prev.live == 0 {
			delete(c.pages, idx-1)
			c.poolPage(prev)
		}
	}
	pg.slots[e.id&pageMask] = e
	pg.live++
	c.npending++
}

// indexDel removes a live entry from the ID index, returning its page to
// the pool when it empties — except the frontier page (the one the next
// IDs will land in), which stays resident so an arm/cancel cycle does not
// churn the page map every iteration.
func (c *Clock) indexDel(e *timerEntry, pg *timerPage) {
	pg.slots[e.id&pageMask] = nil
	pg.live--
	c.npending--
	if pg.live == 0 {
		idx := e.id >> pageBits
		if idx == c.nextID>>pageBits {
			return
		}
		delete(c.pages, idx)
		if c.lastIdx == idx {
			c.lastIdx, c.lastPage = -1, nil
		}
		c.poolPage(pg)
	}
}

// poolPage keeps an emptied page for the next boundary crossing, unless
// the pool is full; then the page is left to the garbage collector.
// Every slot of an emptied page is already nil.
func (c *Clock) poolPage(pg *timerPage) {
	if len(c.pagePool) < maxPooledPages {
		c.pagePool = append(c.pagePool, pg)
	}
}

// place files an entry into its canonical wheel slot relative to the
// anchor and lowers the bound to its expiry. The caller guarantees
// e.at > c.wt.
func (c *Clock) place(e *timerEntry) {
	diff := uint64(e.at) ^ uint64(c.wt)
	level := (63 - bits.LeadingZeros64(diff)) / levelBits
	slot := int(uint64(e.at)>>(uint(level)*levelBits)) & slotMask
	e.level, e.slot = int8(level), int8(slot)
	c.wheel[level][slot].append(e)
	c.occupied[level] |= 1 << uint(slot)
	c.levels |= 1 << uint(level)
	if e.at < c.bound {
		c.bound = e.at
	}
}

// vacate clears the occupancy bits of a wheel slot that has just emptied.
func (c *Clock) vacate(level, slot int) {
	c.occupied[level] &^= 1 << uint(slot)
	if c.occupied[level] == 0 {
		c.levels &^= 1 << uint(level)
	}
}

// armDue inserts an entry whose expiry is at or behind the anchor into the
// due list, keeping (at, seq) order. The new entry carries the globally
// largest seq, so among equal timestamps it lands after its peers; the
// walk from the tail is O(1) in the common already-ordered case.
func (c *Clock) armDue(e *timerEntry) {
	e.level = levelDue
	p := c.due.tail
	for p != nil && p.at > e.at {
		p = p.prev
	}
	if p == nil {
		// New head.
		e.prev, e.next = nil, c.due.head
		if c.due.head == nil {
			c.due.tail = e
		} else {
			c.due.head.prev = e
		}
		c.due.head = e
		return
	}
	e.prev, e.next = p, p.next
	if p.next == nil {
		c.due.tail = e
	} else {
		p.next.prev = e
	}
	p.next = e
}

// ScheduleAt arms a timer that comes due at the absolute time at. Timers
// scheduled for the past come due immediately (on the next poll). The
// payload is handed back verbatim inside the popped Event.
func (c *Clock) ScheduleAt(at Time, payload any) TimerID {
	c.nextID++
	c.nextSeq++
	e := c.free
	if e != nil {
		c.free = e.next
		c.freeLen--
		*e = timerEntry{id: c.nextID, at: at, seq: c.nextSeq, payload: payload}
	} else {
		e = &timerEntry{id: c.nextID, at: at, seq: c.nextSeq, payload: payload}
		c.liveLen++
	}
	c.indexPut(e)
	if c.levels == 0 {
		c.wt = c.now // an empty wheel may take any anchor up to now
	}
	if at > c.wt {
		c.place(e)
	} else {
		c.armDue(e)
	}
	if c.cachedOK && at < c.cachedNext {
		c.cachedNext = at
	}
	return e.id
}

// recycle returns an entry that has left the queue to the free list. The
// payload reference is dropped so the pool does not pin user data.
func (c *Clock) recycle(e *timerEntry) {
	e.payload = nil
	e.prev = nil
	e.level = levelFree
	e.next = c.free
	c.free = e
	c.freeLen++
}

// ScheduleAfter arms a timer d from now.
func (c *Clock) ScheduleAfter(d Duration, payload any) TimerID {
	return c.ScheduleAt(c.now.Add(d), payload)
}

// Cancel disarms the timer. It reports whether the timer was still armed.
func (c *Clock) Cancel(id TimerID) bool {
	_, ok := c.CancelTake(id)
	return ok
}

// CancelTake disarms the timer and hands its payload back to the caller,
// so callers that pool their payloads can reclaim them immediately. The
// entry is unlinked and recycled on the spot — cancellation is O(1) and
// leaves no tombstone behind, so a cancel-heavy workload (timed waits
// that always succeed) runs at a constant live-entry count.
func (c *Clock) CancelTake(id TimerID) (any, bool) {
	pg := c.page(id)
	if pg == nil {
		return nil, false
	}
	e := pg.slots[id&pageMask]
	if e == nil {
		return nil, false
	}
	c.indexDel(e, pg)
	switch {
	case e.level == levelDue:
		c.due.remove(e)
	default:
		lv, sl := int(e.level), int(e.slot)
		c.wheel[lv][sl].remove(e)
		if c.wheel[lv][sl].head == nil {
			c.vacate(lv, sl)
		}
	}
	if c.cachedOK && e.at == c.cachedNext {
		c.cachedOK = false
	}
	pl := e.payload
	c.recycle(e)
	return pl, true
}

// Pending reports the number of armed timers.
func (c *Clock) Pending() int { return c.npending }

// findMinRegion locates the earliest occupied region of the wheel: the
// lowest non-empty level, and its first occupied slot. Every entry at
// level l sits in a slot strictly after the anchor's position there (the
// placement invariant), every entry at level l+1 expires after every entry
// at level l, and slots at one level are in time order, so this region
// contains the earliest wheel entry. The caller guarantees c.levels != 0.
func (c *Clock) findMinRegion() (level, slot int) {
	c.stats.RegionScans++
	level = bits.TrailingZeros16(c.levels)
	return level, bits.TrailingZeros64(c.occupied[level])
}

// fixup moves every wheel entry with at <= now onto the due list in
// (at, seq) order. Before now reaches the bound there is none, and fixup
// returns at once, leaving the anchor behind: any anchor at or before now
// that the wheel was filed against stays valid. It is small enough to
// inline, so such a poll costs no call.
func (c *Clock) fixup() {
	if c.now < c.bound {
		c.stats.BoundPolls++
		return
	}
	c.cascade()
}

// cascade is fixup's slow path. It advances the anchor to now by taking
// the earliest occupied region again and again. A level-0 slot is one
// exact tick, so its whole (seq-ordered) list flushes to the due list.
// So does a coarser slot whose base has been reached and that holds a
// single entry already due: every other wheel entry expires after it and
// every due entry before it. Any other reached slot cascades, in list
// order, into strictly lower levels — which preserves FIFO order because
// a freshly-entered window's lower slots are provably empty before their
// first cascade. Each entry moves at most once per level, so a drain of n
// timers costs O(n·L) amortized. The region it stops short of sets the
// bound: its base, or its only entry's expiry.
func (c *Clock) cascade() {
	for c.levels != 0 {
		l, s := c.findMinRegion()
		shift := uint(l) * levelBits
		base := Time(uint64(c.wt)&^(1<<(shift+levelBits)-1) | uint64(s)<<shift)
		sl := &c.wheel[l][s]
		if base > c.now {
			c.wt, c.bound = c.now, base
			if sl.head == sl.tail {
				c.bound = sl.head.at
			}
			return
		}
		c.wt = base
		c.vacate(l, s)
		if l == 0 || sl.head == sl.tail && sl.head.at <= c.now {
			// Every entry in a level-0 slot shares this exact expiry, and
			// the slot list is in seq order: splice it whole onto the due
			// tail.
			for e := sl.head; e != nil; e = e.next {
				e.level = levelDue
			}
			if c.due.tail == nil {
				c.due.head = sl.head
			} else {
				c.due.tail.next = sl.head
				sl.head.prev = c.due.tail
			}
			c.due.tail = sl.tail
			sl.head, sl.tail = nil, nil
			continue
		}
		e := sl.head
		sl.head, sl.tail = nil, nil
		for e != nil {
			next := e.next
			e.prev, e.next = nil, nil
			if e.at == base {
				e.level = levelDue
				c.due.append(e)
			} else {
				c.place(e)
				c.stats.Refiled++
			}
			e = next
		}
	}
	c.wt, c.bound = c.now, Infinity
}

// NextExpiry returns the expiry of the earliest armed timer. It is O(1)
// while the memo holds and on a clock with no armed timer at all.
func (c *Clock) NextExpiry() (Time, bool) {
	if c.cachedOK {
		return c.cachedNext, true
	}
	c.fixup()
	if e := c.due.head; e != nil {
		c.cachedNext, c.cachedOK = e.at, true
		return e.at, true
	}
	if c.levels == 0 {
		return 0, false
	}
	l, s := c.findMinRegion()
	var min Time
	if l == 0 {
		// A level-0 slot is a single exact tick.
		min = Time(uint64(c.wt)&^slotMask | uint64(s))
	} else {
		// The earliest region is a coarse slot: scan its list for the
		// exact minimum. The memo makes this scan once-per-slot rather
		// than once-per-query, and advancing past it cascades the slot,
		// so each entry is scanned O(L) times over its lifetime.
		min = Infinity
		for e := c.wheel[l][s].head; e != nil; e = e.next {
			if e.at < min {
				min = e.at
			}
			c.stats.SlotScanned++
		}
	}
	c.cachedNext, c.cachedOK = min, true
	return min, true
}

// PopDue removes and returns the earliest timer whose expiry is at or
// before the current time. Events at the same instant pop in the order
// they were scheduled.
func (c *Clock) PopDue() (Event, bool) {
	c.fixup()
	e := c.due.head
	if e == nil {
		return Event{}, false
	}
	c.due.remove(e)
	if pg := c.page(e.id); pg != nil {
		c.indexDel(e, pg)
	}
	if next := c.due.head; next != nil {
		c.cachedNext, c.cachedOK = next.at, true
	} else {
		c.cachedOK = false
	}
	ev := Event{ID: e.id, At: e.at, Payload: e.payload}
	c.recycle(e)
	return ev, true
}

// PeekDue reports the event the next PopDue would return, without
// consuming it: the entry stays armed and the clock state is
// untouched. Consumers that must decide whether to coalesce an
// in-flight announcement with the next event (the kernel's batched
// SIGIO path) use it to look one event ahead.
func (c *Clock) PeekDue() (Event, bool) {
	c.fixup()
	e := c.due.head
	if e == nil {
		return Event{}, false
	}
	return Event{ID: e.id, At: e.at, Payload: e.payload}, true
}

// AdvanceTo moves the clock forward to t. Moving backwards panics: the
// simulation is strictly monotone.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("vtime: clock moved backwards: %v -> %v", c.now, t))
	}
	if c.gov != nil && t > c.lease {
		c.advanceToGov(t)
		return
	}
	c.now = t
}

// Advance moves the clock forward by d.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic("vtime: negative advance")
	}
	t := c.now.Add(d)
	if c.gov != nil && t > c.lease {
		c.advanceGov(t)
		return
	}
	c.now = t
}

// Step advances the clock by up to d, stopping early at the next timer
// expiry. It returns how far it actually advanced and whether it stopped
// because a timer came due. This is the primitive the thread library uses
// to model user computation that can be interrupted by asynchronous
// events.
func (c *Clock) Step(d Duration) (advanced Duration, due bool) {
	if d < 0 {
		panic("vtime: negative step")
	}
	if c.gov != nil && c.now.Add(d) > c.lease {
		return c.stepGov(d)
	}
	target := c.now.Add(d)
	if at, ok := c.NextExpiry(); ok && at <= target {
		if at < c.now {
			// Timer already overdue: do not move, report due.
			return 0, true
		}
		advanced = at.Sub(c.now)
		c.now = at
		return advanced, true
	}
	c.now = target
	return d, false
}
