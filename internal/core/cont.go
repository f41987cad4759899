package core

import (
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file implements parked continuations: threads that release their
// host goroutine while blocked at a declared kernel-mediated wait point
// (fd wait, cond/timed wait, sleep, mutex, join, yield) and are
// represented only by their TCB plus the small resume descriptor below.
// Wakeup re-binds a pooled runner goroutine and resumes the recorded
// wait point, so a million parked threads cost a few cache lines each
// instead of a goroutine stack. The runner released by the parking (or
// exiting) thread is the one rebound, so a switch between two
// continuation threads stays on one goroutine: the runner unwinds the
// leaving step and runs the next one from runnerLoop, with no channel.
//
// The representation is purely host-side. A declared operation runs the
// very function a goroutine thread's call runs (see waitOp): the two
// differ only at the park, so every virtual charge, trace event,
// metrics call, and queue operation is the same code in the same order,
// and schedules are bit-identical between the two representations
// (pinned by the lockstep tests in cont_lockstep_test.go).
//
// The key invariant making the rest of the library work unchanged:
// while a continuation thread is bound to a runner, the runner IS its
// goroutine. Inline blocking inside a step — a contended Lock, a Dial
// handshake, a preemption, a cleanup handler — parks the runner through
// the ordinary resume-channel path and resumes on it. Only the single
// declared operation of a step releases the runner back to the pool.

// ContFunc is one step of a continuation thread. A step runs to
// completion on a runner goroutine; it may perform any library call
// inline, and may declare at most one blocking operation (k.Read is in
// the jacket layer; k.Sleep, k.CondWait, ... below), which must be the
// last action of the step. The declared operation's continuation runs
// as the next step once the operation completes.
type ContFunc func(k *Cont)

// Cont is a continuation thread's resume descriptor: the declared
// operation and its frame, the step to run when it completes, and the
// thread's argument, status and scratch slots. It is the whole
// host-side cost of a parked thread beyond the TCB. Frames are
// arena-backed and recycled when the thread is reclaimed.
//
// The declared operation's results are the frame's exported fields,
// promoted here: Err (its error result), N (a byte count, written by
// the I/O jacket), Rem (Sleep's remaining time) and Val (Join's exit
// status). Declaring an operation clears all four.
type Cont struct {
	s *System
	t *Thread

	first  bool // next dispatch is the thread's first (trampoline prologue)
	parked bool // currently parked without a goroutine

	next ContFunc // continuation recorded by the pending op (or next step)
	// op is the declared blocking operation, re-entered at the frame's
	// phase after the park; nil when the step declared none.
	op func(*System, *waitOp) (parked bool)
	waitOp

	// Arg is the creation argument (CreateCont's arg).
	Arg any
	// Ret is the thread's exit status when the last step returns.
	Ret any
	// Env is a scratch slot for jacket layers that thread their own
	// state through a step chain without a closure.
	Env any
}

// Self returns the continuation's thread handle.
func (k *Cont) Self() *Thread { return k.t }

// Sys returns the owning system.
func (k *Cont) Sys() *System { return k.s }

// declare records the step's blocking operation and returns its frame,
// at phase 0 with every result cleared, so an operation that fails
// never shows an earlier one's results. The caller sets the operands
// the operation reads. A step gets one.
func (k *Cont) declare(op func(*System, *waitOp) bool, next ContFunc) *waitOp {
	if k.op != nil {
		panic("core: continuation step declared two blocking operations")
	}
	k.op, k.next = op, next
	w := &k.waitOp
	w.phase, w.timed = 0, false
	w.Err, w.N, w.Rem, w.Val = nil, 0, 0, nil
	return w
}

// Sleep declares a Sleep(d) park; then runs after the sleep with k.Rem
// holding the remaining time (see System.Sleep).
func (k *Cont) Sleep(d vtime.Duration, then ContFunc) {
	k.declare((*System).sleepOp, then).d = d
}

// Yield declares a sched_yield park (see System.Yield).
func (k *Cont) Yield(then ContFunc) {
	k.declare((*System).yieldOp, then)
}

// Lock declares a mutex acquisition; a contended wait parks without a
// goroutine. then runs with the mutex held (or k.Err set, see
// Mutex.Lock).
func (k *Cont) Lock(m *Mutex, then ContFunc) {
	k.declare((*System).lockOp, then).mu = m
}

// CondWait declares a condition wait (Cond.Wait); the mutex is held
// again when then runs, with k.Err as Wait's result.
func (k *Cont) CondWait(c *Cond, m *Mutex, then ContFunc) {
	w := k.declare((*System).condWait, then)
	w.cv, w.mu = c, m
}

// CondTimedWait declares a timed condition wait (Cond.TimedWait).
func (k *Cont) CondTimedWait(c *Cond, m *Mutex, d vtime.Duration, then ContFunc) {
	w := k.declare((*System).condWait, then)
	w.cv, w.mu, w.d, w.timed = c, m, d, true
}

// Join declares a join on t (System.Join); then runs with k.Val holding
// the target's exit status and k.Err Join's result.
func (k *Cont) Join(t *Thread, then ContFunc) {
	k.declare((*System).joinOp, then).target = t
}

// FDOp declares a blocking-jacket descriptor operation
// (System.FDBlockingOp); then runs with k.Err as the jacket result.
func (k *Cont) FDOp(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, op FDOp, then ContFunc) {
	w := k.declare((*System).fdOp, then)
	w.fd, w.dir, w.what, w.d, w.fdop = fd, dir, what, timeout, op
}

// contRunner is one pooled runner goroutine. While bound, it is the
// thread's execution context; unbound runners sit on the idle list
// waiting for the next wakeup.
type contRunner struct {
	resume chan resumeMsg
	t      *Thread // bound thread; nil while idle (kernel-context access only)
	// again marks a baton the runner passed to itself: the dispatcher
	// bound the runner's next thread to the runner that was leaving, so
	// runnerLoop resumes it directly once the leaving frames unwind.
	// Only the runner's own goroutine reads or writes it.
	again bool
}

// runnerIdleMax bounds the idle-runner pool; excess runners are killed
// on release instead of pooled.
const runnerIdleMax = 16

// bindRunner attaches a runner goroutine to a continuation thread about
// to be dispatched. Runs in kernel context (single-threaded), so the
// pool needs no lock.
func (s *System) bindRunner(t *Thread) {
	var r *contRunner
	if n := len(s.runnerIdle); n > 0 {
		r = s.runnerIdle[n-1]
		s.runnerIdle[n-1] = nil
		s.runnerIdle = s.runnerIdle[:n-1]
	} else {
		r = &contRunner{resume: make(chan resumeMsg, 1)}
		s.runnerLive++
		if s.runnerLive > s.runnerPeak {
			s.runnerPeak = s.runnerLive
		}
		go s.runnerLoop(r)
	}
	r.t = t
	t.runner = r
	s.stats.RunnerBinds++
	if k := t.cont; k.parked {
		k.parked = false
		s.stats.ContParked--
	}
}

// releaseRunner detaches a thread's runner, pooling or killing it. Runs
// in kernel context. The released runner's goroutine may still be
// unwinding toward its select loop — any message sent to it (a rebind's
// resume, or the kill here) waits in its 1-buffered channel.
func (s *System) releaseRunner(t *Thread) {
	r := t.runner
	t.runner = nil
	r.t = nil
	if len(s.runnerIdle) < runnerIdleMax {
		s.runnerIdle = append(s.runnerIdle, r)
		return
	}
	s.runnerLive--
	sendKill(r.resume)
}

// passBaton transfers control to next, the thread just dispatched. from
// is the runner the calling context is leaving (nil on a goroutine
// thread). When the dispatcher bound next to that same runner, no
// goroutine changes hands: the runner marks itself to step again once
// the caller unwinds, and nothing is sent. Otherwise the resume goes on
// next's channel, and the send is the caller's last touch of the system.
func (s *System) passBaton(next *Thread, from *contRunner) {
	if from != nil && next.runner == from {
		s.stats.RunnerTrampolines++
		from.again = true
		return
	}
	s.stats.BatonSends++
	next.resumeCh() <- resumeMsg{}
}

// runnerLoop is the body of one runner goroutine: wait for a resume (a
// bind's wakeup), run the bound thread until it parks, exits, or the
// system finishes. A baton the runner passed to itself (r.again) is
// taken without the channel, after the shutdown checks the select
// would make: a finished system or a pending kill ends the runner.
func (s *System) runnerLoop(r *contRunner) {
	for {
		if r.again {
			r.again = false
			// A kill is the only message that can be waiting. finished
			// needs no synchronization here: finish runs on the thread
			// that holds the baton, or (Stop) while every thread of the
			// system is parked, so it happens before this check.
			if s.finished || len(r.resume) != 0 {
				return
			}
		} else {
			select {
			case msg := <-r.resume:
				if msg.kill {
					return
				}
			case <-s.doneCh:
				return
			}
		}
		if !s.runnerStep(r) {
			return
		}
	}
}

// runnerStep resumes the bound thread until it parks, exits (through
// the ordinary termination path), or the system finishes. It returns
// false when the runner must die: the unwind contract is the
// trampoline's (see unwound).
func (s *System) runnerStep(r *contRunner) (ok bool) {
	t := r.t
	completed := false
	defer func() { ok = s.unwound(t, completed, recover()) }()
	s.unmaskAfterSwitch()
	if status, exited := s.contBody(t.cont); exited {
		s.exitCurrent(status)
	}
	completed = true
	return
}

// contBody is the continuation analogue of trampoline+callBody: run the
// kernel-exit tail owed from the dispatch that resumed us, then drive
// steps; convert Exit unwinding into a return value.
func (s *System) contBody(k *Cont) (status any, exited bool) {
	defer func() {
		if st, ok := exitStatus(recover()); ok {
			status, exited = st, true
		}
	}()
	// A wakeup from a declared park runs the tail of the leaveKernel
	// that handed the processor away, exactly as a goroutine thread
	// returning from park does. The first dispatch is the trampoline
	// prologue: no poll, the dispatching context already ran the tail.
	if !k.first {
		s.pollOutsideKernel()
	}
	k.first = false
	s.drainFakeCalls()
	s.armSliceOnUserReturn()
	if s.contSteps(k) {
		return nil, false
	}
	return k.Ret, true
}

// contSteps drives the step machine: run the pending declared operation
// (if any), then successive steps until one parks or no continuation
// remains. An operation that parked has released the runner and passed
// the baton: the caller unwinds without touching k or its thread, and
// the next dispatch re-enters the operation at its frame's phase.
func (s *System) contSteps(k *Cont) (parked bool) {
	for {
		if k.op != nil {
			if k.op(s, &k.waitOp) {
				return true
			}
			k.op = nil
		}
		next := k.next
		if next == nil {
			return false
		}
		k.next = nil
		next(k)
	}
}
