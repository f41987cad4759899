package core

import (
	"pthreads/internal/vtime"
)

// Cond is a POSIX condition variable (pthread_cond_t). Create it with
// System.NewCond. A mutex and a predicate over shared data are associated
// with it by convention; because wakeups may be spurious (a signal
// handler interrupting the wait terminates it, exactly as in the paper),
// waiters must re-evaluate their predicate in a loop.
type Cond struct {
	s       *System
	name    string
	waiters waitList
	mutex   *Mutex // the associated mutex while waiters are present

	// Counters for the harness.
	Signals    int64
	Broadcasts int64
}

// timedWaitTag marks the expiry timer of a TimedWait; the delivery model
// short-circuits it into the wait machinery. It is a typed view of the
// waiting thread's TCB, so arming the timer stores a pointer and no tag:
// the cond whose wait it ends is the one t.waitingCond names.
type timedWaitTag Thread

// NewCond initializes a condition variable (pthread_cond_init).
func (s *System) NewCond(name string) *Cond {
	if name == "" {
		name = "cond"
	}
	return &Cond{s: s, name: name}
}

// Name returns the condition variable's label.
func (c *Cond) Name() string { return c.name }

// Waiters reports how many threads are blocked on the condition variable.
//
// Kernel consistency: a bare read of state that other threads mutate only
// inside kernel sections. Safe under baton-passing — whenever a thread
// executes user code, no kernel section is in progress anywhere, so the
// count is never observed mid-update. It is a snapshot, though: the value
// can change at the caller's next blocking operation. Must be called from
// thread context or after Run returns (introspect.go has the audit).
func (c *Cond) Waiters() int { return c.waiters.depth }

// Wait atomically releases the mutex and suspends the calling thread
// until the condition variable is signaled, a handler interrupts the wait
// (a spurious wakeup), or the thread is cancelled. On return — by any
// path — the mutex is again held by the caller. Wait is an interruption
// point for cancellation; a cancelled waiter reacquires the mutex before
// its cleanup handlers run.
func (c *Cond) Wait(m *Mutex) error {
	var w waitOp
	w.cv, w.mu = c, m
	c.s.condWait(&w)
	return w.Err
}

// TimedWait is Wait with a relative timeout; it returns ETIMEDOUT if the
// condition variable was not signaled within d of virtual time. The mutex
// is held again on return regardless.
func (c *Cond) TimedWait(m *Mutex, d vtime.Duration) error {
	var w waitOp
	w.cv, w.mu, w.d, w.timed = c, m, d, true
	c.s.condWait(&w)
	return w.Err
}

// condWait is Wait and TimedWait over a frame (see waitOp).
func (s *System) condWait(w *waitOp) (parked bool) {
	t := s.current
	c, m := w.cv, w.mu
	if w.phase == 0 {
		if w.timed && w.d < 0 {
			w.Err = EINVAL.Or()
			return false
		}
		if m == nil || m.owner != t {
			return w.fail(t, EPERM)
		}
		if c.mutex != nil && c.mutex != m {
			// Different mutexes used with one condition variable.
			return w.fail(t, EINVAL)
		}
		if m.eng != nil {
			// Engine mutexes have no suspend queue, and the signal
			// hand-off below morphs cond waiters onto exactly that queue
			// (see enginemutex.go).
			return w.fail(t, EINVAL)
		}
		s.TestCancel()

		s.enterKernel()
		s.stats.CondWaits++
		s.cpu.ChargeInstr(instrCondEnqueue)
		c.mutex = m
		t.waitingCond = c
		t.wake = wakeNone
		s.traceCond(OpWait, t, c)
		if w.timed {
			t.waitTimer = s.kern.SetTimerInternal(s.proc, sigalrm, w.d, (*timedWaitTag)(t))
		}
		// Release the mutex atomically with the suspension: we are
		// inside the kernel, so no other thread can intervene between
		// the unlock and the block. Unlike Unlock, this release charges
		// no owned-list bookkeeping. The thread joins the queue after
		// the release, at the priority the release leaves it: a boost
		// it held through m ends there.
		t.disown(m)
		s.releaseLocked(m, "for condition wait")
		c.waiters.push(t, int(t.prio))
		w.phase = 1
		if s.block(w.declared, verbCond) {
			return true
		}
	}

	// Woken. Every path below ends with the mutex held.
	s.cpu.ChargeInstr(instrCondResume)
	t.waitingCond = nil
	if t.waitTimer != 0 {
		s.kern.DisarmInternal(t.waitTimer)
		t.waitTimer = 0
	}

	switch t.wake {
	case wakeCondSignal, wakeGrant:
		// Signaled; the mutex was granted to us (directly, or after
		// queueing on it).
	case wakeInterrupt:
		// A signal handler interrupted the wait; the fake-call wrapper
		// reacquired the mutex before the handler ran. This surfaces as
		// a spurious wakeup.
	case wakeTimeout:
		// The expiry handler removed us from c.waiters before the mutex
		// was reacquired, so the association must be dropped *before*
		// returning: returning early here used to leave a stale c.mutex
		// when the timeout drained the last waiter, and a later Wait
		// with a different mutex was wrongly rejected with EINVAL.
		s.mutexLock(m)
		c.dropMutexIfIdle()
		s.TestCancel()
		return w.fail(t, ETIMEDOUT)
	case wakeCancel:
		// Cancelled while waiting: reacquire the mutex so cleanup
		// handlers observe a deterministic mutex state, then act. The
		// association is dropped first — TestCancel does not return, so
		// this path would otherwise leak the stale c.mutex exactly like
		// the timeout path did.
		s.mutexLock(m)
		c.dropMutexIfIdle()
		s.TestCancel() // exits
	default:
		panic("core: condition wait woke with unexpected cause")
	}
	c.dropMutexIfIdle()
	s.TestCancel()
	return false
}

// dropMutexIfIdle clears the condvar→mutex association once the last
// waiter is gone. Every path out of wait must pass through it (or through
// Signal/Broadcast, which perform the same cleanup): the association is
// only valid while waiters are present, and a stale one makes the next
// Wait with a different mutex fail with EINVAL.
func (c *Cond) dropMutexIfIdle() {
	if c.waiters.head == nil {
		c.mutex = nil
	}
}

// Signal wakes the highest-priority waiter (pthread_cond_signal). The
// woken thread must reacquire the associated mutex before its wait
// returns: if the mutex is free it is granted immediately; otherwise the
// thread is queued on the mutex, avoiding a thundering reacquisition.
func (c *Cond) Signal() error {
	s := c.s
	s.enterKernel()
	c.Signals++
	c.wakeOneLocked()
	c.dropMutexIfIdle()
	s.leaveKernel()
	return nil
}

// Broadcast wakes every waiter (pthread_cond_broadcast). One waiter gets
// the mutex; the rest queue on it.
func (c *Cond) Broadcast() error {
	s := c.s
	s.enterKernel()
	c.Broadcasts++
	for c.waiters.head != nil {
		c.wakeOneLocked()
	}
	c.mutex = nil
	s.leaveKernel()
	return nil
}

// wakeOneLocked moves the highest-priority waiter off the condition
// variable and through mutex reacquisition. Runs in the kernel.
func (c *Cond) wakeOneLocked() {
	s := c.s
	w := c.waiters.pop()
	if w == nil {
		return
	}
	m := c.mutex
	w.waitingCond = nil
	if w.waitTimer != 0 {
		s.kern.DisarmInternal(w.waitTimer)
		w.waitTimer = 0
	}
	s.traceCond(OpSignal, w, c)
	if m == nil || m.owner == nil {
		// Mutex free (or association already cleared): grant directly.
		if m != nil {
			s.atoms.TAS(&m.lockWord)
			w.wake = wakeCondSignal
			s.grantLocked(m, w)
			return
		}
		w.wake = wakeCondSignal
		s.makeReady(w, false)
		return
	}
	// Mutex held: the waiter contends for it like any locker.
	w.wake = wakeCondSignal
	w.waitingMutex = m
	if m.protocol == ProtocolInherit {
		s.boostOwnerChain(m, int(w.prio))
	}
	w.verb = verbMutex
	m.waiters.push(w, int(w.prio))
	// The block reason changed while the state stayed Blocked: the
	// profiler reads this event as a contention and a state change.
	s.traceMutex(OpRequeue, w, m, "reacquire after signal")
}
