package core

import (
	"pthreads/internal/unixkern"
)

// This file implements thread cancellation: a request to send the
// internal signal SIGCANCEL to a thread, acted upon according to the
// thread's interruptibility state (Table 1):
//
//	disabled  + any          → SIGCANCEL pends on the thread until enabled
//	enabled   + controlled   → pends until an interruption point is reached
//	enabled   + asynchronous → acted upon immediately
//
// Interruption points are the operations that may suspend a thread
// indefinitely — condition waits, join, sigwait, sleep, asynchronous I/O
// — plus the explicit TestCancel (pthread_testintr). Locking a mutex is
// deliberately *not* an interruption point.

// Cancel requests cancellation of a thread (pthread_cancel). A lazily
// created thread is activated so it can terminate.
func (s *System) Cancel(t *Thread) error {
	if err := s.checkThread(t); err != OK {
		return err.Or()
	}
	s.enterKernel()
	if t.state == StateTerminated {
		s.leaveKernel()
		return ESRCH.Or()
	}
	if t.state == StateNew {
		s.activateLocked(t)
	}
	s.trace(EvCancel, t, "requested", t.cancelState.String())
	s.directAt(t, &unixkern.SigInfo{Sig: unixkern.SIGCANCEL, Cause: unixkern.CauseKill, Sender: s.proc.Pid})
	s.leaveKernel()
	return nil
}

// actOnCancel applies Table 1 for a SIGCANCEL directed at a thread. Runs
// in the kernel.
func (s *System) actOnCancel(t *Thread, info *unixkern.SigInfo) {
	switch t.cancelState {
	case CancelDisabled:
		// Pends on the thread until cancellation is enabled.
		t.setPending(unixkern.SIGCANCEL, info)
		s.trace(EvCancel, t, "pended", "interruptibility disabled")

	case CancelControlled:
		// Pends until an interruption point. If the thread is suspended
		// at one right now, terminate the wait so the point can act.
		t.cancelPending = true
		s.trace(EvCancel, t, "pended", "until interruption point")
		if t.state != StateBlocked {
			return
		}
		switch t.BlockReason() {
		case BlockMutex, BlockSuspend:
			// Not interruption points. For the mutex: "a thread cannot
			// be cancelled while in controlled interruptibility when it
			// suspends due to mutex contention", guaranteeing a
			// deterministic mutex state for cleanup handlers.
		default:
			s.endWait(t, wakeCancel)
		}

	case CancelAsynchronous:
		// Acted upon immediately: terminate any wait — including a
		// mutex wait — and install the fake call to pthread_exit.
		if t.state == StateBlocked {
			s.endWait(t, wakeCancel)
		}
		s.pushFakeCall(t, &fakeFrame{kind: fakeCancel, sig: unixkern.SIGCANCEL, info: info})
	}
}

// SetCancelState changes the calling thread's interruptibility state
// (pthread_setintr/pthread_setintrtype collapsed into one tri-state),
// returning the previous state. Enabling cancellation with a cancel
// request pending acts on the request per the new state: immediately for
// asynchronous, at the next interruption point for controlled.
func (s *System) SetCancelState(cs CancelState) CancelState {
	switch cs {
	case CancelDisabled, CancelControlled, CancelAsynchronous:
	default:
		panic("core: invalid cancel state")
	}
	t := s.current
	old := t.cancelState
	s.enterKernel()
	t.cancelState = cs
	if in := t.pendingSig(unixkern.SIGCANCEL); in != nil && cs != CancelDisabled {
		t.setPending(unixkern.SIGCANCEL, nil)
		s.actOnCancel(t, in)
	} else if cs == CancelAsynchronous && t.cancelPending {
		t.cancelPending = false
		s.pushFakeCall(t, &fakeFrame{kind: fakeCancel, sig: unixkern.SIGCANCEL})
	}
	s.leaveKernel() // drains the fake call if one was just installed
	return old
}

// CancelState returns the calling thread's interruptibility state.
func (s *System) CancelState() CancelState { return s.current.cancelState }

// CancelPending reports whether a cancellation request is pending on the
// thread (tests and diagnostics).
func (s *System) CancelPending(t *Thread) bool {
	return t.cancelPending || t.pendingSig(unixkern.SIGCANCEL) != nil
}

// TestCancel creates an interruption point (pthread_testintr): a pending
// cancellation request in controlled interruptibility is acted upon here.
// Acting disables interruptibility and all other signals for the thread,
// then exits it with status Canceled.
func (s *System) TestCancel() {
	t := s.current
	if t == nil {
		return
	}
	if t.cancelState == CancelControlled && t.cancelPending {
		t.cancelPending = false
		s.stats.Cancellations++
		t.cancelState = CancelDisabled
		t.sigMask = unixkern.FullSigset().Del(unixkern.SIGCANCEL)
		s.trace(EvCancel, t, "acted", "interruption point")
		s.Exit(Canceled)
	}
}
