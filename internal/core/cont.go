package core

import (
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file implements parked continuations: threads that release their
// runner (runner.go) while blocked at a declared kernel-mediated wait
// point (fd wait, cond/timed wait, sleep, mutex, join, yield) and are
// represented only by their TCB plus the small resume descriptor below.
// Wakeup binds a pooled runner again and resumes the recorded wait
// point, so a million parked threads cost a few cache lines each
// instead of a goroutine stack. A Create thread runs on a runner too,
// but keeps it until it exits.
//
// The representation is purely host-side. A declared operation runs the
// very function a Create thread's call runs (see waitOp): the two
// differ only at the park, so every virtual charge, trace event,
// metrics call, and queue operation is the same code in the same order,
// and schedules are bit-identical between the two representations
// (pinned by the lockstep tests in cont_lockstep_test.go).
//
// Inline blocking inside a step — a contended Lock, a Dial handshake, a
// preemption, a cleanup handler — parks the bound runner exactly as it
// parks a Create thread's. Only the single declared operation of a step
// releases the runner back to the pool.

// ContFunc is one step of a continuation thread. A step runs to
// completion on a runner goroutine; it may perform any library call
// inline, and may declare at most one blocking operation (k.Read is in
// the jacket layer; k.Sleep, k.CondWait, ... below), which must be the
// last action of the step. The declared operation's continuation runs
// as the next step once the operation completes.
type ContFunc func(k *Cont)

// Cont is a continuation thread's resume descriptor: the declared
// operation and its frame, the step to run when it completes, and the
// thread's argument, status and scratch slots. Beside the TCB it is the
// whole host-side cost of a parked thread in the core: the system is
// the TCB's, the dispatch flags live in the TCB's spare bytes, and the
// thread has no simulated stack until something pushes a frame on it.
// Frames are arena-backed and recycled when the thread is reclaimed.
//
// The declared operation's results are the frame's exported fields,
// promoted here: Err (its error result), N (a byte count, written by
// the I/O jacket), Rem (Sleep's remaining time) and Val (Join's exit
// status). Declaring an operation clears all four; a descriptor
// operation's FDOp stays readable through DeclaredFDOp.
type Cont struct {
	t *Thread

	next ContFunc // continuation recorded by the pending op (or next step)
	// op is the declared blocking operation, re-entered at the frame's
	// phase after the park; nil when the step declared none.
	op func(*System, *waitOp) (parked bool)
	waitOp

	// Arg is the creation argument (CreateCont's arg).
	Arg any
	// Ret is the thread's exit status when the last step returns.
	Ret any
}

// Self returns the continuation's thread handle.
func (k *Cont) Self() *Thread { return k.t }

// Sys returns the owning system.
func (k *Cont) Sys() *System { return k.t.sys }

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
// runner. then runs with the mutex held (or k.Err set, see
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
func (k *Cont) FDOp(fd unixkern.FD, verb FDVerb, timeout vtime.Duration, op FDOp, then ContFunc) {
	w := k.declare((*System).fdOp, then)
	w.fd, w.verb, w.d, w.fdop = fd, verb, timeout, op
}

// DeclaredFDOp returns the op of the step's descriptor operation (FDOp),
// so the jacket's continuation reads its per-call state back from the
// frame instead of a slot of its own.
func (k *Cont) DeclaredFDOp() FDOp { return k.fdop }

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
