package core

import (
	"strconv"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file is the library half of the blocking-I/O jacket layer: the
// per-descriptor wait lists and the FDBlockingCall primitive that turns
// a non-blocking descriptor operation into a per-thread blocking call.
//
// The paper keeps one thread's blocking UNIX call from stopping the whole
// process by issuing asynchronous requests and suspending the thread until
// the SIGIO completion is demultiplexed back (recipient rule 4). The SR
// and MPD runtime ports formalize the same idea as "jacket routines"
// around each blocking syscall. Here the two meet: the socket layer
// (internal/net) exposes non-blocking try-operations and announces
// readiness through SIGIO completions carrying descriptor sets; this file
// parks threads on priority-ordered per-descriptor wait lists, one for
// both directions — the same waitList, threaded through the waiters'
// TCBs, that mutex, cond and join waiters queue on (waitlist.go) — and
// wakes them, one direction at a time, from those completions. A
// blocked jacket call is interrupted with EINTR by a handled signal (via
// a fake call) and is an interruption point for cancellation, per the
// paper's SIGCANCEL rules.

// FDDir selects the direction of a descriptor wait.
type FDDir uint8

const (
	// FDRead waits for the descriptor to become readable (data, EOF,
	// a queued connection on a listener, a completed device request).
	FDRead FDDir = iota
	// FDWrite waits for the descriptor to become writable (buffer space,
	// an established or refused connect).
	FDWrite
)

// String names the direction.
func (d FDDir) String() string {
	if d == FDRead {
		return "read"
	}
	return "write"
}

// fdKey identifies a descriptor and a direction (trace-label interning
// only; the wait lists themselves live in the fd-hashed shards below).
type fdKey struct {
	fd  unixkern.FD
	dir FDDir
}

// A descriptor has one wait list, holding the threads that wait to read
// it and those that wait to write it in one priority order; the list
// counts its writers, so either direction's depth is known without a
// walk. A wake in one direction takes the first waiter of that
// direction, which is the head unless a thread of the other direction
// waits ahead of it. The waiters of one direction are a subsequence of
// the list, so they keep exactly the order a list of their own would
// give them: highest level first, FIFO within a level. A descriptor
// therefore costs one 24 B list head, not one per direction: a reader
// parked on a socket it dialed keeps no second head for the handshake it
// waited out.
//
// The heads are sharded by descriptor hash: shard index is the low six
// bits of the fd, and within a shard the remaining bits index a dense
// slice of heads. Parking and waking a waiter therefore touch two array
// slots — no global map insert or delete on the hot path, and no
// rehashing as the descriptor population grows to 100k and beyond. A
// head is all a descriptor holds: the list itself is threaded through
// the waiters' TCBs (qPrev/qNext), so a parked waiter costs its
// descriptor nothing beyond the head, and a head whose last waiter left
// holds nothing but nil links.
const (
	fdwShardBits  = 6
	fdwShardCount = 1 << fdwShardBits
	fdwShardMask  = fdwShardCount - 1
)

type fdwShard struct {
	lists []waitList // indexed by fd >> fdwShardBits
}

// fdList returns the wait list of fd, or nil if its shard's slice was
// never grown to it. The pointer aliases the slice: callers must not
// hold it across a call that can grow it (fdListEnsure).
func (s *System) fdList(fd unixkern.FD) *waitList {
	sh := &s.fdShards[int(fd)&fdwShardMask]
	idx := int(fd) >> fdwShardBits
	if idx >= len(sh.lists) {
		return nil
	}
	return &sh.lists[idx]
}

// fdListEnsure returns the wait list of fd, growing its shard's slice to
// cover the descriptor first.
func (s *System) fdListEnsure(fd unixkern.FD) *waitList {
	sh := &s.fdShards[int(fd)&fdwShardMask]
	idx := int(fd) >> fdwShardBits
	for idx >= len(sh.lists) {
		sh.lists = append(sh.lists, waitList{})
	}
	return &sh.lists[idx]
}

// fdDepth is how many threads on a descriptor's list l wait in
// direction dir.
func fdDepth(l *waitList, dir FDDir) int {
	if dir == FDWrite {
		return int(l.writers)
	}
	return int(l.depth - l.writers)
}

// fdUnlink takes a descriptor waiter t off its descriptor's list l.
func fdUnlink(l *waitList, t *Thread) {
	l.unlink(t)
	if t.fdVerb().Dir() == FDWrite {
		l.writers--
	}
}

// fdWaitTag is the timer datum of a timed descriptor wait, a typed view
// of the waiting thread's TCB; like timedWaitTag it bypasses the
// recipient rules and terminates the wait directly (see
// deliverToLibrary).
type fdWaitTag Thread

// fdLabel returns the interned queue label for traces ("fd3/read").
// Call sites guard on the tracer, so when tracing is off neither the
// formatting nor the cache is ever touched; with tracing on, each
// (fd, dir) pair is formatted exactly once.
func (s *System) fdLabel(fd unixkern.FD, dir FDDir) string {
	key := fdKey{fd: fd, dir: dir}
	if name, ok := s.fdNames[key]; ok {
		return name
	}
	if s.fdNames == nil {
		s.fdNames = make(map[fdKey]string)
	}
	name := "fd" + strconv.Itoa(int(fd)) + "/" + dir.String()
	s.fdNames[key] = name
	return name
}

// FDBlockingCall is the jacket primitive: it runs attempt inside the
// library kernel and, while the operation would block, suspends the
// calling thread on the wait queue of fd in the verb's direction until a
// SIGIO completion designates it. The verb also labels the wait (see
// FDVerb). attempt reports done=true when the operation completed
// (the call returns nil) and more=true when residual readiness remains —
// the next waiter is then designated immediately, so a single completion
// carrying several units of readiness (a burst of data, several queued
// connections) wakes the whole chain in priority order.
//
// Because attempt runs with the kernel flag set, checking readiness and
// deciding to suspend are atomic with respect to event delivery: the
// classic lost-wakeup window between "poll said not ready" and "thread
// parked" cannot occur. A timeout > 0 bounds the whole call (ETIMEDOUT);
// a handled signal delivered to the blocked thread interrupts it (EINTR,
// after the handler ran); cancellation terminates it as an interruption
// point.
func (s *System) FDBlockingCall(fd unixkern.FD, verb FDVerb, timeout vtime.Duration, attempt func() (done, more bool)) error {
	var w waitOp
	w.fd, w.verb, w.d = fd, verb, timeout
	s.fdWait(&w, attempt)
	return w.Err
}

// FDOp is the record-free form of a jacket attempt: the object the
// call works on (the jacket's endpoint) stored in an interface, with the
// call's operand and results in the caller's frame, so a blocking call
// needs neither a closure nor a per-call record. Attempt tries the
// verb's operation once for up to want bytes. It reports done and more
// as FDBlockingCall's attempt does and, once done, the bytes it moved
// and the operation's error, already in the errno form a blocking call
// returns.
type FDOp interface {
	Attempt(verb FDVerb, want int) (n int, done, more bool, err error)
}

// FDBlockingOp is FDBlockingCall over an FDOp, for a transfer of up to
// want bytes. It returns the completed attempt's count and error, or 0
// and the wait's own error (ETIMEDOUT, EINTR) when no attempt
// completed. A steady-state read/write loop through it allocates
// nothing: its frame is on the caller's stack.
func (s *System) FDBlockingOp(fd unixkern.FD, verb FDVerb, timeout vtime.Duration, op FDOp, want int) (int, error) {
	var w waitOp
	w.fd, w.verb, w.d, w.fdop, w.N = fd, verb, timeout, op, want
	s.fdWait(&w, nil)
	return w.N, w.Err
}

// fdOp is fdWait in the form a continuation declares: the attempt is the
// FDOp in the frame.
func (s *System) fdOp(w *waitOp) (parked bool) { return s.fdWait(w, nil) }

// fdWait is the jacket loop over a frame (see waitOp). The attempt is
// attempt when it is non-nil and w.fdop otherwise; the virtual costs
// charged are identical for both forms. attempt stays a parameter, out
// of the frame, so the closures FDBlockingCall is handed do not escape.
// For w.fdop, w.N is the request until an attempt completes and the
// count moved after; a wait that ends without one moved nothing, so
// every such exit leaves N at 0.
func (s *System) fdWait(w *waitOp, attempt func() (done, more bool)) (parked bool) {
	t := s.current
	fd, dir := w.fd, w.verb.Dir()
	if w.phase == 0 {
		s.TestCancel()
		if w.d > 0 {
			w.deadline = s.clock.Now().Add(w.d)
		}
		s.enterKernel()
	}
	for {
		if w.phase != 0 {
			// Back from the park at the bottom of the loop.
			s.fdBlockedNow--
			waited := s.clock.Now().Sub(w.blockedAt)
			s.stats.FDBlockedNS += int64(waited)
			if s.tracer != nil {
				s.emit(TraceEvent{Kind: EvFDDone, Thread: t, FD: fd, Dir: dir, Wait: waited})
			}
			if t.waitTimer != 0 {
				s.kern.DisarmInternal(t.waitTimer)
				t.waitTimer = 0
			}
			switch t.wake {
			case wakeIO:
				// Designated by a completion: retry the operation.
				// Another thread may have consumed the readiness first, in
				// which case the loop simply re-blocks.
				s.enterKernel()
			case wakeTimeout:
				s.stats.FDTimeouts++
				w.N, w.Err = 0, ETIMEDOUT.Or()
				return false
			case wakeInterrupt:
				// A user signal handler interrupted the wait; it already
				// ran (fake call) and the jacket call reports EINTR.
				s.stats.FDEINTRs++
				if s.tracer != nil {
					s.traceFD(t, fd, dir, "eintr", s.fdWaitLabel(fd, w.verb))
				}
				w.N, w.Err = 0, EINTR.Or()
				return false
			case wakeCancel:
				s.TestCancel() // exits via the cancellation machinery
				w.N, w.Err = 0, EINTR.Or()
				return false
			default:
				panic("core: fd wait woke with unexpected cause")
			}
		}
		var done, more bool
		if attempt != nil {
			done, more = attempt()
		} else {
			var n int
			var err error
			if n, done, more, err = w.fdop.Attempt(w.verb, w.N); done {
				w.N, w.Err = n, err
			}
		}
		if done {
			if more {
				s.fdWakeTop(fd, dir, "chain")
			}
			s.leaveKernel()
			return false
		}
		// A cancellation that arrived while this thread was designated
		// (ready but not yet dispatched) must not be followed by an
		// unwakeable re-block: act on it here, at the interruption point.
		if t.cancelState == CancelControlled && t.cancelPending {
			s.leaveKernel()
			s.TestCancel() // exits
		}
		if w.d > 0 {
			rem := w.deadline.Sub(s.clock.Now())
			if rem <= 0 {
				s.stats.FDTimeouts++
				if s.tracer != nil {
					s.traceFD(t, fd, dir, "timeout", s.fdWaitLabel(fd, w.verb))
				}
				s.leaveKernel()
				w.N, w.Err = 0, ETIMEDOUT.Or()
				return false
			}
			t.waitTimer = s.kern.SetTimerInternal(s.proc, sigalrm, rem, (*fdWaitTag)(t))
		}
		s.fdEnqueue(fd, dir, t)
		t.wake = wakeNone
		s.stats.FDWaits++
		if s.tracer != nil {
			s.traceFD(t, fd, dir, "block", s.fdWaitLabel(fd, w.verb))
		}
		w.blockedAt = s.clock.Now()
		s.fdBlockedNow++
		w.phase = 1
		if s.block(w.declared, verbFD+waitVerb(w.verb)) {
			return true
		}
	}
}

// fdEnqueue parks a thread on fd's wait list to wait in direction dir,
// priority-ordered like every other wait queue in the library. Runs in
// the kernel.
func (s *System) fdEnqueue(fd unixkern.FD, dir FDDir, t *Thread) {
	l := s.fdListEnsure(fd)
	s.cpu.ChargeInstr(instrReadyQueueOp)
	l.push(t, int(t.prio))
	if dir == FDWrite {
		l.writers++
	}
	t.waitFD = fd
	if d := int64(fdDepth(l, dir)); d > s.stats.FDMaxWaitDepth {
		s.stats.FDMaxWaitDepth = d
	}
}

// fdWakeTop designates the highest-priority waiter on (fd, dir): it is
// dequeued and made ready with wake cause wakeIO. Wake-one is the policy;
// residual readiness propagates by chaining (FDBlockingCall's more flag),
// so no completion is ever fanned out to waiters that would find nothing.
// Runs in the kernel.
func (s *System) fdWakeTop(fd unixkern.FD, dir FDDir, why string) {
	if l := s.fdList(fd); l != nil && fdDepth(l, dir) > 0 {
		s.fdWake(l, fd, dir, why)
	}
}

// fdWakeAll designates every waiter on (fd, dir), highest priority first.
// Used for wake-all completions (shared device descriptors) and close.
func (s *System) fdWakeAll(fd unixkern.FD, dir FDDir, why string) {
	// The list is looked up afresh for every waiter rather than held
	// across makeReady.
	for {
		l := s.fdList(fd)
		if l == nil || fdDepth(l, dir) == 0 {
			return
		}
		s.fdWake(l, fd, dir, why)
	}
}

// fdWake dequeues the first waiter in direction dir of a list that has
// one and makes it ready.
func (s *System) fdWake(l *waitList, fd unixkern.FD, dir FDDir, why string) {
	t := l.head
	for t.fdVerb().Dir() != dir {
		t = t.qNext
	}
	fdUnlink(l, t)
	s.cpu.ChargeInstr(instrReadyQueueOp)
	t.wake = wakeIO
	s.stats.FDWakeups++
	if s.tracer != nil {
		s.traceFD(t, fd, dir, "wake", why)
	}
	s.makeReady(t, false)
}

// fdCompletion is recipient rule 4 in per-descriptor form: a SIGIO whose
// datum is an IOCompletion wakes the waiters of each descriptor the
// completing event made ready. Runs in the kernel.
func (s *System) fdCompletion(c *unixkern.IOCompletion) {
	for i := range c.Ready {
		r := &c.Ready[i]
		if r.R {
			if r.All {
				s.fdWakeAll(r.FD, FDRead, "completion")
			} else {
				s.fdWakeTop(r.FD, FDRead, "completion")
			}
		}
		if r.W {
			if r.All {
				s.fdWakeAll(r.FD, FDWrite, "completion")
			} else {
				s.fdWakeTop(r.FD, FDWrite, "completion")
			}
		}
	}
	// The readiness sets are consumed; hand an owned completion back to
	// its pool (no-op for unowned ones).
	c.Release()
}

// FDKickAll wakes every thread waiting on the descriptor, both
// directions. The jacket layer calls it from close(): the kicked threads
// re-attempt their operation and observe the closed state.
func (s *System) FDKickAll(fd unixkern.FD) {
	s.enterKernel()
	s.fdWakeAll(fd, FDRead, "close")
	s.fdWakeAll(fd, FDWrite, "close")
	s.leaveKernel()
}

// FDWaitDepth reports how many threads wait on (fd, dir) right now.
// Bare accessor (see introspect.go): thread context or post-Run only.
func (s *System) FDWaitDepth(fd unixkern.FD, dir FDDir) int {
	if l := s.fdList(fd); l != nil {
		return fdDepth(l, dir)
	}
	return 0
}

// CountFDBytes adds to the jacket byte counter; the jacket layer calls it
// from inside attempt for every byte actually moved.
func (s *System) CountFDBytes(n int) { s.stats.FDBytes += int64(n) }
