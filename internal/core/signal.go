package core

import (
	"fmt"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file implements the paper's signal delivery model: the universal
// signal handler, the six recipient-resolution rules, the seven
// action-selection rules, per-thread masks and pending sets, sigwait, and
// pthread_kill.

const (
	sigalrm = unixkern.SIGALRM
	sigsegv = unixkern.SIGSEGV
)

// wakeCause tells a thread resuming from a blocking call why it woke.
type wakeCause uint8

const (
	wakeNone wakeCause = iota
	wakeGrant
	wakeCondSignal
	wakeTimeout
	wakeInterrupt
	wakeSigwait
	wakeCancel
	wakeTimer
	wakeIO
	wakeJoin
	wakeActivate
)

// Sigaction installs a handler for a signal in the process-wide action
// table. The handler executes in the context — and at the priority — of
// the thread the signal is directed to, via a fake call. The mask is
// blocked for that thread while the handler runs, in addition to the
// signal itself.
func (s *System) Sigaction(sig unixkern.Signal, handler SigHandler, mask unixkern.Sigset) error {
	if !sig.Maskable() || sig == unixkern.SIGCANCEL {
		return EINVAL.Or()
	}
	s.enterKernel()
	s.sigactions[sig] = sigactionRec{Handler: handler, Mask: mask}
	s.leaveKernel()
	return nil
}

// SigactionIgnore sets a signal to be discarded (action rule 6).
func (s *System) SigactionIgnore(sig unixkern.Signal) error {
	if !sig.Maskable() || sig == unixkern.SIGCANCEL {
		return EINVAL.Or()
	}
	s.enterKernel()
	s.sigactions[sig] = sigactionRec{Ignore: true}
	s.leaveKernel()
	return nil
}

// SigactionDefault restores the default action (rule 7: default action on
// the process).
func (s *System) SigactionDefault(sig unixkern.Signal) error {
	if !sig.Maskable() || sig == unixkern.SIGCANCEL {
		return EINVAL.Or()
	}
	s.enterKernel()
	s.sigactions[sig] = sigactionRec{}
	s.leaveKernel()
	return nil
}

// SetSigmask replaces the calling thread's signal mask, returning the
// previous mask (pthread_sigmask SIG_SETMASK). Unblocked pending signals
// — on the thread first, then on the process — are acted upon before it
// returns. SIGKILL, SIGSTOP and the internal SIGCANCEL cannot be masked
// this way (cancellation has its own interface, SetCancelState).
func (s *System) SetSigmask(m unixkern.Sigset) unixkern.Sigset {
	s.enterKernel()
	t := s.current
	old := t.sigMask
	t.sigMask = m & unixkern.FullSigset().Del(unixkern.SIGCANCEL)
	s.flushThreadPending(t)
	s.checkProcessPending()
	s.leaveKernel()
	return old
}

// Sigmask returns the calling thread's current signal mask.
//
// Kernel consistency: this is a deliberate bare read (no kernel entry, no
// charged cost). It is safe under the baton-passing discipline because
// (a) only the current thread executes at any instant, and (b) sigMask is
// only ever written by its own thread (SetSigmask, handler entry/exit
// fake calls), never cross-thread — so the running thread reads its own,
// stable field. Like every bare accessor (see the audit note in
// introspect.go), it must be called from thread context or after Run
// returns.
func (s *System) Sigmask() unixkern.Sigset { return s.current.sigMask }

// Kill directs a signal at a specific thread (pthread_kill). This is the
// internal delivery path: no UNIX system call is involved, which is why
// the paper measures it at a fifth of the external path's latency.
func (s *System) Kill(t *Thread, sig unixkern.Signal) error {
	if !sig.Valid() {
		return EINVAL.Or()
	}
	if err := s.checkThread(t); err != OK {
		return err.Or()
	}
	s.enterKernel()
	if t.state == StateTerminated {
		s.leaveKernel()
		return ESRCH.Or()
	}
	s.stats.SignalsInternal++
	if t.state == StateNew {
		s.activateLocked(t)
	}
	// Recipient rule 1: the signal is specifically directed at a thread.
	s.directAt(t, &unixkern.SigInfo{Sig: sig, Cause: unixkern.CauseKill, Sender: s.proc.Pid})
	s.leaveKernel()
	return nil
}

// RaiseProcess sends a signal to the whole process through the UNIX
// kernel (kill(getpid(), sig)): the external path, demultiplexed to a
// thread by the universal handler.
func (s *System) RaiseProcess(sig unixkern.Signal) error {
	return s.kern.Kill(s.proc.Pid, sig)
}

// RaiseSync injects a synchronous fault (recipient rule 2 directs it at
// the thread that caused it). The code value reaches the handler through
// SigInfo, which is how the Ada runtime distinguishes causes of the same
// signal.
func (s *System) RaiseSync(sig unixkern.Signal, code int) {
	s.kern.RaiseSync(sig, code)
}

// Alarm arms a one-shot timer that generates SIGALRM after d, directed at
// the calling thread by recipient rule 3 ("direct it at the thread which
// armed the timer").
func (s *System) Alarm(d vtime.Duration) {
	s.kern.SetTimer(s.proc, sigalrm, d, s.current, false)
}

// universalHandler is installed in the simulated UNIX kernel for every
// maskable signal. It is the single entry point by which asynchronous
// events reach the library.
func (s *System) universalHandler(sig unixkern.Signal, info *unixkern.SigInfo) {
	if s.finished {
		return
	}
	if s.kernelFlag {
		// Caught while in the Pthreads kernel: log it and defer to the
		// dispatcher (Figure 2's restart arc).
		s.caughtInKernel = append(s.caughtInKernel, info)
		s.dispatcherFlag = true
		return
	}

	s.stats.SignalsExternal++
	t := s.current

	// The UNIX kernel pushed an interrupt frame on the interrupted
	// thread's stack; account for it. Overflow here is fatal: there is
	// no room to even deliver SIGSEGV.
	if err := t.frames().Push(hw.Frame{Kind: hw.FrameInterrupt, Size: hw.InterruptFrameSize}); err != nil {
		s.finish(fmt.Errorf("stack overflow delivering %v to %v: %w", sig, t, err), nil)
		panic(killPanic{})
	}

	// Restart any interrupted restartable atomic sequence (Figure 4).
	s.atoms.InterruptRAS()

	// Enter the kernel from signal context and enable all signals at
	// the process level — the first of the two sigsetmask calls the
	// implementation budgets per received signal. (The second is the
	// dispatcher's disable-all before switching to another thread's
	// context; the restore on handler return rides the sigreturn.)
	s.kernelFlag = true
	s.stats.KernelEntries++
	s.inUniversal++
	savedCharged := s.universalCharged
	s.universalCharged = false
	oldMask := s.proc.Sigsetmask(0)

	s.deliverToLibrary(info)
	s.dispatch()
	s.inUniversal--
	s.universalCharged = savedCharged

	// Control is back at the interruption point of this thread (possibly
	// much later, after other threads ran). Run any fake calls installed
	// for it, then return from the universal handler: the mask is
	// restored by the sigreturn and the interrupt frame popped.
	s.drainFakeCalls()
	s.proc.RestoreMask(oldMask)
	t.stack.Pop()
	// No quantum arming here: the sigreturn that follows still charges
	// time, so the quantum is armed only at points followed directly by
	// user execution (leaveKernel, Compute, runThread).
}

// handleCaught processes the signals logged while the kernel flag was
// set. Runs inside the kernel, from the dispatcher.
func (s *System) handleCaught() {
	// Index iteration instead of re-slicing: the slice may grow while we
	// drain it (a delivery can re-enter the UNIX kernel and catch more
	// signals), and resetting to [:0] afterwards keeps the capacity so a
	// steady stream of in-kernel catches never reallocates the log.
	for i := 0; i < len(s.caughtInKernel); i++ {
		in := s.caughtInKernel[i]
		s.caughtInKernel[i] = nil
		s.deliverToLibrary(in)
	}
	s.caughtInKernel = s.caughtInKernel[:0]
}

// deliverToLibrary resolves the receiving thread for a process-level
// signal — the paper's recipient rules 2 through 6 (rule 1, direct
// thread targeting, never reaches the process level). Runs in the kernel.
func (s *System) deliverToLibrary(info *unixkern.SigInfo) {
	sig := info.Sig
	s.cpu.ChargeInstr(instrDirectSignal)

	// Library-internal timer: a TimedWait expiry bypasses the thread
	// rules and terminates the wait directly.
	if tag, ok := info.Datum.(*timedWaitTag); ok && info.Cause == unixkern.CauseTimer {
		t := (*Thread)(tag)
		// A stale expiry (the wait it was armed for already ended) finds
		// the thread out of its cond wait, or in one with no timer armed.
		if t.state == StateBlocked && t.BlockReason() == BlockCond && t.waitTimer != 0 {
			t.waitTimer = 0 // fired; nothing to disarm
			s.endWait(t, wakeTimeout)
		}
		// Terminal: tag deliveries never reach user handlers or pending
		// sets, so the kernel-minted SigInfo can be reclaimed here.
		s.kern.RecycleSigInfo(info)
		return
	}

	// Library-internal timer: a timed descriptor wait (jacket call)
	// expiry likewise terminates the wait directly.
	if tag, ok := info.Datum.(*fdWaitTag); ok && info.Cause == unixkern.CauseTimer {
		t := (*Thread)(tag)
		if t.state == StateBlocked && t.BlockReason() == BlockFD {
			t.waitTimer = 0 // fired; nothing to disarm
			s.endWait(t, wakeTimeout)
		}
		s.kern.RecycleSigInfo(info) // terminal, as above
		return
	}

	// Rule 2: synchronously delivered → the thread which caused it.
	if info.Cause == unixkern.CauseSync {
		s.directAt(s.current, info)
		return
	}
	// Rule 3: timer expiration → the thread which armed the timer.
	if info.Cause == unixkern.CauseTimer {
		if t, ok := info.Datum.(*Thread); ok && t != nil && t.state != StateTerminated && !t.dead {
			s.directAt(t, info)
			return
		}
	}
	// Rule 4: I/O completion → the thread which requested the I/O. A
	// completion carrying a descriptor-readiness set takes the
	// per-descriptor form: the waiters of each ready descriptor are
	// designated from their wait queues.
	if info.Cause == unixkern.CauseIO {
		if c, ok := info.Datum.(*unixkern.IOCompletion); ok {
			s.fdCompletion(c)
			// Terminal: the completion was demultiplexed to the wait
			// queues; neither it nor the SigInfo is retained.
			s.kern.RecycleSigInfo(info)
			return
		}
		if t, ok := info.Datum.(*Thread); ok && t != nil && t.state != StateTerminated && !t.dead {
			s.directAt(t, info)
			return
		}
	}
	// Rule 5: any thread with the signal unmasked (linear search; a
	// thread suspended in sigwait has the awaited set unmasked and is
	// found the same way).
	if t := s.findRecipient(sig); t != nil {
		s.directAt(t, info)
		return
	}
	// Rule 6: pend on the process until a thread becomes eligible.
	s.processPending[sig] = info
	if s.tracer != nil {
		s.trace(EvSignal, nil, sig.String(), "pending on process")
	}
}

// findRecipient performs the rule-5 linear search.
func (s *System) findRecipient(sig unixkern.Signal) *Thread {
	for _, t := range s.all {
		if t == nil {
			continue
		}
		s.cpu.ChargeInstr(instrPerThreadScan)
		if t.state == StateTerminated || t.state == StateNew || t.dead {
			continue
		}
		if !t.sigMask.Has(sig) {
			return t
		}
	}
	return nil
}

// directAt applies the action-selection rules (1–7) for a signal directed
// at a specific thread. Runs in the kernel.
func (s *System) directAt(t *Thread, info *unixkern.SigInfo) {
	sig := info.Sig
	if s.tracer != nil {
		s.trace(EvSignal, t, sig.String(), info.Cause.String())
	}

	// SIGCANCEL has its own action logic (Table 1); see cancel.go.
	if sig == unixkern.SIGCANCEL {
		s.actOnCancel(t, info)
		return
	}

	// Rule 1: the thread masked the signal → pend on the thread.
	if t.sigMask.Has(sig) {
		if old := t.pendingSig(sig); old != nil {
			s.stats.LostThreadSigs++
			s.kern.RecycleSigInfo(old) // the overwritten instance is lost
		}
		t.setPending(sig, info)
		return
	}

	// Rule 2: SIGALRM from a timer expiration.
	if sig == sigalrm && info.Cause == unixkern.CauseTimer {
		if info.TimeSlice {
			// Time slicing. The quantum measures user execution: if
			// none elapsed since arming (the whole quantum went to
			// dispatch/signal overhead), the expiry is spurious and
			// the quantum is re-armed at the next user return —
			// otherwise a quantum shorter than the overhead would
			// thrash without progress.
			progressed := t.userNS > s.sliceUserMark
			s.sliceTimer = 0
			s.sliceFor = nil
			if t.state == StateRunning && progressed {
				t.state = StateReady
				s.cpu.ChargeInstr(instrReadyQueueOp)
				s.ready.Enqueue(t, int(t.prio))
				s.dispatcherFlag = true
				s.trace(EvState, t, "ready", "time slice expired")
			}
			s.kern.RecycleSigInfo(info) // terminal: consumed by the slice logic
			return
		}
		if t.state == StateBlocked && t.BlockReason() == BlockSleep {
			t.waitTimer = 0
			t.wake = wakeTimer
			s.makeReady(t, false)
			s.kern.RecycleSigInfo(info) // terminal: the sleep is satisfied
			return
		}
		// Not suspended: fall through to the remaining rules (a thread
		// that armed an alarm and kept computing gets its handler).
	}

	// I/O completion wakes the thread suspended on that request.
	if sig == unixkern.SIGIO && info.Cause == unixkern.CauseIO &&
		t.state == StateBlocked && t.BlockReason() == BlockIO {
		t.wake = wakeIO
		s.makeReady(t, false)
		return
	}

	// Rule 3: the thread is suspended in sigwait for this signal (or is
	// just entering the wait; then the wait is satisfied synchronously).
	if t.sigwaitsFor(sig) {
		t.cold.inSigwait = false
		t.cold.sigwaitGot = sig
		t.wake = wakeSigwait
		if t.state == StateBlocked && t.BlockReason() == BlockSigwait {
			s.makeReady(t, false)
		}
		return
	}

	// Rule 4: a handler is registered → install a fake call and make
	// the thread ready.
	if act := s.sigactions[sig]; act.Handler != nil {
		s.pushFakeCall(t, &fakeFrame{
			kind:    fakeHandler,
			sig:     sig,
			info:    info,
			handler: act.Handler,
			mask:    act.Mask,
		})
		return
	}

	// Rule 6: ignored → discard.
	if s.sigactions[sig].Ignore {
		return
	}

	// Rule 7: default action on the process.
	s.performDefaultAction(sig)
}

// performDefaultAction applies the UNIX default action at the process
// level (terminate for most signals, discard for the rest).
func (s *System) performDefaultAction(sig unixkern.Signal) {
	switch sig {
	case unixkern.SIGCHLD, unixkern.SIGURG, unixkern.SIGWINCH, unixkern.SIGIO,
		unixkern.SIGCONT, unixkern.SIGINFO, unixkern.SIGTSTP, unixkern.SIGTTIN, unixkern.SIGTTOU:
		return
	}
	s.finish(fmt.Errorf("process terminated by %v (default action)", sig), nil)
	panic(killPanic{})
}

// pendingSig returns the instance of sig pended on the thread, if any.
func (t *Thread) pendingSig(sig unixkern.Signal) *unixkern.SigInfo {
	if t.pending == nil {
		return nil
	}
	return t.pending[sig]
}

// setPending pends info on the thread as sig's instance (nil clears it),
// allocating the table the first time a signal pends.
func (t *Thread) setPending(sig unixkern.Signal, info *unixkern.SigInfo) {
	if t.pending == nil {
		if info == nil {
			return
		}
		t.pending = new([unixkern.NSIGAll]*unixkern.SigInfo)
	}
	t.pending[sig] = info
}

// flushThreadPending re-examines a thread's pended signals after its mask
// changed, acting on the now-unblocked ones.
func (s *System) flushThreadPending(t *Thread) {
	if t.pending == nil {
		return
	}
	for sig := unixkern.Signal(1); sig < unixkern.NSIGAll; sig++ {
		in := t.pendingSig(sig)
		if in == nil {
			continue
		}
		if sig == unixkern.SIGCANCEL {
			if t.cancelState == CancelDisabled {
				continue
			}
		} else if t.sigMask.Has(sig) {
			continue
		}
		t.setPending(sig, nil)
		s.directAt(t, in)
	}
}

// checkProcessPending re-runs recipient rule 5 for process-pended signals
// after any thread's mask changed ("pend the signal on the process level
// until a thread becomes eligible to receive it").
func (s *System) checkProcessPending() {
	for sig := unixkern.Signal(1); sig < unixkern.NSIGAll; sig++ {
		in := s.processPending[sig]
		if in == nil {
			continue
		}
		if t := s.findRecipient(sig); t != nil {
			s.processPending[sig] = nil
			s.directAt(t, in)
		}
	}
}

// ProcessPendingSet reports the signals pended at the process level
// (diagnostics and tests).
func (s *System) ProcessPendingSet() unixkern.Sigset {
	var set unixkern.Sigset
	for sig := unixkern.Signal(1); sig < unixkern.NSIGAll; sig++ {
		if s.processPending[sig] != nil {
			set = set.Add(sig)
		}
	}
	return set
}

// ThreadPendingSet reports the signals pended on a thread.
func (s *System) ThreadPendingSet(t *Thread) unixkern.Sigset {
	var set unixkern.Sigset
	if t.pending == nil {
		return set
	}
	for sig := unixkern.Signal(1); sig < unixkern.NSIGAll; sig++ {
		if t.pendingSig(sig) != nil {
			set = set.Add(sig)
		}
	}
	return set
}

// Sigwait suspends the calling thread until one of the signals in set is
// directed at it, returning that signal. Signals already pending on the
// thread or the process are consumed immediately. Sigwait is an
// interruption point for cancellation. A signal handler (for a different
// signal) interrupting the wait aborts it with EINTR.
func (s *System) Sigwait(set unixkern.Sigset) (unixkern.Signal, error) {
	set = set & unixkern.FullSigset().Del(unixkern.SIGCANCEL)
	if set.Empty() {
		return 0, EINVAL.Or()
	}
	s.TestCancel()
	s.enterKernel()
	t := s.current

	// Consume already-pending signals, lowest number first.
	for sig := unixkern.Signal(1); sig < unixkern.NSIG; sig++ {
		if !set.Has(sig) {
			continue
		}
		if t.pendingSig(sig) != nil {
			t.setPending(sig, nil)
			s.leaveKernel()
			return sig, nil
		}
		if s.processPending[sig] != nil {
			s.processPending[sig] = nil
			s.leaveKernel()
			return sig, nil
		}
	}

	// Wait: the awaited set is unmasked for the duration ("sigwait is
	// just another case where the signal is unmasked").
	saved := t.sigMask
	t.sigMask = t.sigMask.Minus(set)
	c := t.coldState()
	c.inSigwait = true
	c.sigwaitSet = set
	t.wake = wakeNone
	s.checkProcessPending()
	if c.inSigwait {
		// Nothing pended for us during checkProcessPending: block.
		s.block(false, verbSigwait)
	} else {
		// checkProcessPending satisfied the wait synchronously: rule 3
		// recorded the signal and wake cause without a queue
		// transition, since we are the running thread.
		s.leaveKernel()
	}

	if t.wake == wakeInterrupt || t.wake == wakeCancel {
		c.inSigwait = false
		t.sigMask = saved
		s.TestCancel()
		return 0, EINTR.Or()
	}
	// Rule 3: on return the awaited signals are masked for the thread.
	t.sigMask = saved.Union(set)
	s.TestCancel()
	return c.sigwaitGot, nil
}
