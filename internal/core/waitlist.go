package core

// A suspended thread waits on exactly one object: a mutex, a condition
// variable, a thread it joins, or a descriptor (in one direction). Every
// such wait queue is a waitList threaded through the waiters' TCBs
// (qPrev/qNext), as the paper's library keeps its queues in the TCBs, so
// a queue costs its object only the list head and a parked waiter
// allocates nothing. Waits with no queue (sleep, sigwait, asynchronous
// I/O, suspend) end through the same endWait.

// waitList is one priority-ordered wait queue, in sched.Queue's order:
// highest level first, FIFO within a level. Each waiter records the
// level it was queued at (qLevel), so it can be unlinked in O(1)
// whatever its current priority.
type waitList struct {
	head, tail *Thread
	depth      int32
	// writers counts the waiters of a descriptor's list that wait to
	// write it (fdwait.go); every other list leaves it 0.
	writers int32
}

// joinLevel is the one level joiners queue at: they wake together when
// the target exits, in arrival order, and nothing repositions them.
const joinLevel = 0

// push queues t at level lvl, behind every waiter of equal or higher
// level. The walk starts at the tail, so the common case — a waiter no
// more urgent than the last one queued — is O(1).
func (l *waitList) push(t *Thread, lvl int) {
	t.qLevel = int8(lvl)
	p := l.tail
	for p != nil && int(p.qLevel) < lvl {
		p = p.qPrev
	}
	t.qPrev = p
	if p == nil {
		t.qNext = l.head
		l.head = t
	} else {
		t.qNext = p.qNext
		p.qNext = t
	}
	if t.qNext == nil {
		l.tail = t
	} else {
		t.qNext.qPrev = t
	}
	l.depth++
}

// unlink takes t off the list.
func (l *waitList) unlink(t *Thread) {
	if t.qPrev == nil {
		l.head = t.qNext
	} else {
		t.qPrev.qNext = t.qNext
	}
	if t.qNext == nil {
		l.tail = t.qPrev
	} else {
		t.qNext.qPrev = t.qPrev
	}
	t.qPrev, t.qNext = nil, nil
	l.depth--
}

// pop takes the head (the most urgent, longest-waiting waiter) off the
// list and returns it, or returns nil when the list is empty.
func (l *waitList) pop() *Thread {
	t := l.head
	if t != nil {
		l.unlink(t)
	}
	return t
}

// waitListOf returns the list a blocked thread is queued on, or nil for
// a wait without one.
func (s *System) waitListOf(t *Thread) *waitList {
	switch t.BlockReason() {
	case BlockMutex:
		return &t.waitingMutex.waiters
	case BlockCond:
		return &t.waitingCond.waiters
	case BlockJoin:
		return &t.joinTarget.joiners
	case BlockFD:
		return s.fdList(t.waitFD)
	}
	return nil
}

// endWait ends a blocked thread's wait with the given cause: the thread
// leaves its wait list, its wait timer is disarmed, and it becomes ready
// to observe cause. Every wait that ends early — a cancellation, a
// handler's fake call, an expired timeout — ends here, and so do the
// joins that the target's exit completes. Runs in the kernel.
func (s *System) endWait(t *Thread, cause wakeCause) {
	if t.BlockReason() == BlockFD {
		fdUnlink(s.fdList(t.waitFD), t)
	} else if l := s.waitListOf(t); l != nil {
		l.unlink(t)
	}
	c := t.waitingCond
	t.waitingMutex, t.waitingCond, t.joinTarget = nil, nil, nil
	if t.cold != nil {
		t.cold.inSigwait = false
	}
	if t.waitTimer != 0 {
		s.kern.DisarmInternal(t.waitTimer)
		t.waitTimer = 0
	}
	t.wake = cause
	if c != nil && s.tracer != nil {
		// The condition wait ends here, however it ended; reported
		// before makeReady, at the instant the waiter left the queue.
		s.emit(TraceEvent{Kind: EvCondEnd, Thread: t, Cond: c})
	}
	s.makeReady(t, false)
}
