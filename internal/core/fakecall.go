package core

import (
	"fmt"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
)

// This file implements fake calls (Figure 3): frames pushed onto a
// thread's stack so that a user signal handler executes in that thread's
// context, at that thread's priority, when the thread is next dispatched.

// SigContext is passed to user signal handlers. Besides exposing the
// signal information, it carries the implementation-defined redirect hook:
// instead of returning to the interruption point, the handler may ask the
// wrapper to transfer control "to an instruction whose address can
// optionally be specified by the user handler" — here, a longjmp target.
// The Ada runtime uses this to propagate exceptions out of synchronous
// signals.
type SigContext struct {
	s *System
	t *Thread

	// Sig is the delivered signal; Info its provenance, including the
	// code the Ada runtime uses to distinguish causes of the same
	// synchronous signal.
	Sig  unixkern.Signal
	Info *unixkern.SigInfo

	redirect    *JmpBuf
	redirectVal int
}

// Thread returns the thread the handler is executing on.
func (sc *SigContext) Thread() *Thread { return sc.t }

// RedirectTo makes the fake-call wrapper transfer control to the given
// setjmp context (with Longjmp semantics) instead of returning to the
// interruption point, after the handler returns and the signal mask is
// restored.
func (sc *SigContext) RedirectTo(jb *JmpBuf, val int) {
	if val == 0 {
		val = 1
	}
	sc.redirect = jb
	sc.redirectVal = val
}

// pushFakeCall installs a fake call on a thread and, per action rule 4,
// makes the thread ready if it was suspended at an interruptible point.
// Runs in the kernel.
func (s *System) pushFakeCall(t *Thread, f *fakeFrame) {
	s.stats.FakeCalls++
	s.cpu.ChargeInstr(instrFakeCallPush)
	if err := t.frames().Push(hw.Frame{Kind: hw.FrameFakeCall, Size: hw.FakeCallFrameSize}); err != nil {
		s.finish(fmt.Errorf("stack overflow installing fake call for %v on %v: %w", f.sig, t, err), nil)
		panic(killPanic{})
	}
	c := t.coldState()
	c.fakeStack = append(c.fakeStack, f)

	switch t.state {
	case StateRunning, StateReady:
		// The frame runs when the thread next returns to user code.
		s.dispatcherFlag = true
	case StateNew:
		// Lazy thread: delivery of a handled signal activates it.
		s.activateLocked(t)
	case StateBlocked:
		switch t.BlockReason() {
		case BlockCond:
			// "If the user handler interrupted a conditional wait, the
			// mutex is reacquired and the conditional wait terminated."
			// While the thread waits, the condition variable stays
			// associated with the wait's mutex.
			f.reacquire = t.waitingCond.mutex
			s.endWait(t, wakeInterrupt)
		case BlockSleep, BlockSigwait, BlockFD:
			// A blocking jacket call (BlockFD) returns EINTR, like a
			// blocking syscall under SA_RESTART unset.
			s.endWait(t, wakeInterrupt)
		default:
			// Mutex, join and I/O waits are not interrupted: locking a
			// mutex is explicitly not an interruption point, and the
			// handler will run when the thread resumes anyway.
		}
	}
}

// drainFakeCalls executes the pending fake calls of the current thread.
// It runs with the kernel flag clear, right before control returns to the
// thread's user code — the moment the paper's wrapper frames would start
// executing.
func (s *System) drainFakeCalls() {
	if s.finished {
		return
	}
	if s.kernelFlag {
		panic("core: drainFakeCalls inside kernel")
	}
	t := s.current
	c := t.cold
	if c == nil {
		return
	}
	for len(c.fakeStack) > 0 && !s.finished {
		f := c.fakeStack[len(c.fakeStack)-1]
		c.fakeStack = c.fakeStack[:len(c.fakeStack)-1]
		s.runFakeCall(t, f)
	}
}

// runFakeCall executes one wrapper frame: the sequence of actions the
// paper lists for the fake-call wrapper.
func (s *System) runFakeCall(t *Thread, f *fakeFrame) {
	s.cpu.ChargeInstr(instrFakeCallRun)

	// The wrapper frame leaves the stack however the wrapper exits —
	// normal return, longjmp redirect, or thread exit.
	defer func() {
		if t.stack != nil && t.stack.Depth() > 1 && t.stack.Top().Kind == hw.FrameFakeCall {
			t.stack.Pop()
		}
	}()

	if f.kind == fakeCancel {
		// A fake call to pthread_exit: the cancellation is acted upon.
		// Interruptibility becomes disabled and all other signals are
		// disabled for this thread.
		s.stats.Cancellations++
		t.cancelState = CancelDisabled
		t.cancelPending = false
		t.sigMask = unixkern.FullSigset().Del(unixkern.SIGCANCEL)
		s.trace(EvCancel, t, "acted", "fake call to pthread_exit")
		s.Exit(Canceled)
	}

	// 1. If the handler interrupted a conditional wait, reacquire the
	//    mutex and terminate the wait.
	if f.reacquire != nil {
		s.mutexLock(f.reacquire)
	}

	// 2. Save the thread's error number.
	savedErrno := t.errno

	// 3. Call the user handler with the sigaction mask (plus the signal
	//    itself) blocked.
	oldMask := t.sigMask
	t.sigMask = t.sigMask.Union(f.mask).Add(f.sig)
	sc := &SigContext{s: s, t: t, Sig: f.sig, Info: f.info}
	t.SigsTaken++
	s.trace(EvHandlerEnter, t, "", "")
	f.handler(f.sig, f.info, sc)
	s.trace(EvHandlerExit, t, "", "")

	// 4. Restore the thread's error number.
	t.errno = savedErrno

	// 5. Restore the per-thread signal mask and handle pending signals
	//    on the thread and process if now enabled.
	s.enterKernel()
	t.sigMask = oldMask
	s.flushThreadPending(t)
	s.checkProcessPending()
	s.leaveKernel()

	// 6. Transfer control back to the interruption point, or to the
	//    continuation the handler specified.
	if sc.redirect != nil {
		s.Longjmp(sc.redirect, sc.redirectVal)
	}
}
