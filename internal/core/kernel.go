package core

import (
	"fmt"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file is the Pthreads kernel of the paper: the monolithic monitor
// (kernel flag + dispatcher flag), the dispatcher of Figure 2, and the
// context switch.

// Costs, in simple instructions, of the library-kernel primitives. They
// are the calibration constants behind the composite Table 2 latencies;
// see internal/eval for the calibration method.
const (
	instrKernelEnter   = 8   // set kernel flag, prologue
	instrKernelExit    = 8   // test dispatcher flag, clear kernel flag
	instrSelect        = 32  // find-first-set + dequeue in the ready queue
	instrSwitchFixed   = 290 // dispatcher body around the two window traps
	instrReadyQueueOp  = 18  // enqueue/remove on a priority queue
	instrDirectSignal  = 180 // recipient+action rule evaluation, fixed part
	instrPerThreadScan = 10  // recipient rule 5, per thread scanned
	instrFakeCallPush  = 220 // build the wrapper frame, adjust saved SP/PC
	instrFakeCallRun   = 350 // wrapper prologue/epilogue around the handler
	instrSetjmpSave    = 36  // store non-scratch state into the jmp_buf
	instrLongjmpLoad   = 14  // reload state, fix SP
	instrMutexGrant    = 160 // ownership transfer to a suspended waiter
	instrLockResume    = 400 // resumption of an interrupted lock operation
	instrCondEnqueue   = 160 // condition wait queue + mutex association
	instrCondResume    = 280 // terminate the wait, revalidate the mutex
	instrTCBInit       = 400 // initialize TCB fields and the initial frame
)

// enterKernel sets the kernel flag, establishing the monolithic monitor.
// Signals arriving while the flag is set are logged and deferred to the
// dispatcher. Nested entry is a library bug and panics.
func (s *System) enterKernel() {
	if s.kernelFlag {
		panic("core: nested kernel entry")
	}
	s.cpu.ChargeInstr(instrKernelEnter)
	s.kernelFlag = true
	s.stats.KernelEntries++
}

// leaveKernel leaves the monitor: if the dispatcher flag is clear the
// kernel flag is simply reset; otherwise the dispatcher runs, which may
// context switch. Either way, pending fake calls for the (then-) current
// thread execute before control returns to user code.
func (s *System) leaveKernel() {
	if !s.kernelFlag {
		panic("core: leaveKernel outside kernel")
	}
	if s.current.state == StateRunning {
		if s.pervertArm {
			s.pervertKernelExit()
		} else if s.explorer != nil {
			s.exploreAt(PointKernelExit)
		}
	}
	if !s.dispatcherFlag {
		s.cpu.ChargeInstr(instrKernelExit)
		s.kernelFlag = false
	} else {
		s.dispatch()
	}
	s.pollOutsideKernel()
	s.drainFakeCalls()
	s.armSliceOnUserReturn()
}

// pollOutsideKernel delivers any timer/IO events whose due time has been
// crossed by cost charging while the kernel flag was set. It runs with the
// flag clear, so deliveries take the immediate path of the universal
// handler.
func (s *System) pollOutsideKernel() {
	if s.kernelFlag {
		panic("core: poll inside kernel")
	}
	s.kern.Poll()
}

// KernelEnterExit performs a null library call: enter and immediately
// leave the Pthreads kernel. It exists for the paper's first performance
// metric, which times exactly this to show the advantage over entering
// the UNIX kernel.
func (s *System) KernelEnterExit() {
	s.enterKernel()
	s.leaveKernel()
}

// dispatch implements the dispatcher of Figure 2. Entered with the kernel
// flag set; on return the calling thread is (again) the running thread and
// both flags are clear.
func (s *System) dispatch() {
	if !s.kernelFlag {
		panic("core: dispatch outside kernel")
	}
	s.stats.DispatcherRuns++
	for {
		// Handle signals logged while the kernel flag was set; their
		// handling may change which thread should run next, so
		// selection follows it.
		if len(s.caughtInKernel) > 0 {
			s.handleCaught()
		}

		next := s.selectNext()
		if next == nil {
			s.idleStep()
			continue
		}

		// Clear kernel and dispatcher flags, then re-check for signals
		// that arrived in the window — Figure 2's restart arc.
		s.kernelFlag = false
		s.dispatcherFlag = false
		if len(s.caughtInKernel) > 0 {
			s.kernelFlag = true
			if next != s.current {
				if s.lastPickForce {
					// The pick came from a consumed PRNG draw or an
					// explorer decision. Discarding it here would re-run
					// selection by plain priority — a draw with no
					// schedule effect, desynchronizing record/replay.
					// Park it back on the level it was taken from and
					// pin it so the re-selection after signal handling
					// honors the committed decision.
					s.ready.EnqueueHead(next, s.lastPickPrio)
					s.forcedNext = next
					s.forcedPrio = s.lastPickPrio
				} else {
					s.ready.EnqueueHead(next, int(next.prio))
				}
			}
			continue
		}

		if s.pendingPick != nil {
			if s.pendingPick == next {
				s.prngDecisions++
			}
			s.pendingPick = nil
		}
		if next != s.current {
			s.contextSwitch(next)
		} else if next.state != StateRunning {
			// The current thread was requeued (perverted policy, time
			// slice) and then selected again: no switch, but it resumes
			// the running state (a fresh quantum is armed when control
			// reaches user code).
			next.state = StateRunning
			s.trace(EvState, next, "running", "reselected")
			s.cancelSliceTimer()
		}
		return
	}
}

// selectNext picks the thread to run according to the scheduling policy
// (or the active perverted policy). It dequeues the chosen thread; if the
// current thread stays running it is returned as-is. Returns nil when no
// thread can run (the caller idles).
func (s *System) selectNext() *Thread {
	s.cpu.ChargeInstr(instrSelect)
	cur := s.current
	s.lastPickForce = false

	if s.forcedNext != nil {
		// A draw/explorer pick preserved across the restart arc: honor
		// it if the signal handling left the thread ready (a handler
		// may have blocked or killed it, invalidating the decision).
		t := s.forcedNext
		s.forcedNext = nil
		if t.state == StateReady {
			ok := s.ready.Remove(t, s.forcedPrio)
			if !ok {
				_, ok = s.ready.RemoveAny(t)
			}
			if ok {
				s.lastPickForce = true
				s.lastPickPrio = s.forcedPrio
				return t
			}
		}
	}

	if s.explorePickArmed {
		// Exploration: dispatch exactly the ready thread the explorer
		// chose (same Nth ordering its decision indexed). Signals
		// handled since the decision may have grown the ready set; the
		// clamp keeps the pick valid either way.
		s.explorePickArmed = false
		if n := s.ready.Len(); n > 0 {
			i := s.explorePick
			if i >= n {
				i = n - 1
			}
			t, p, _ := s.ready.Nth(i)
			s.ready.Remove(t, p)
			s.lastPickForce = true
			s.lastPickPrio = p
			return t
		}
	}

	if s.randomPick {
		// Random-switch perverted policy: choose uniformly at random
		// among ready threads (the current thread was already requeued
		// by the policy hook).
		s.randomPick = false
		if n := s.ready.Len(); n > 0 {
			s.prngDraws++
			t, p, _ := s.ready.Nth(s.rng().Intn(n))
			s.ready.Remove(t, p)
			s.lastPickForce = true
			s.lastPickPrio = p
			s.pendingPick = t
			return t
		}
	}

	_, topPrio, ok := s.ready.PeekMax()
	if cur != nil && cur.state == StateRunning {
		if !ok || topPrio <= int(cur.prio) {
			return cur
		}
		// Preemption: the current thread goes to the *head* of its
		// priority queue.
		s.stats.Preemptions++
		cur.state = StateReady
		s.cpu.ChargeInstr(instrReadyQueueOp)
		s.ready.EnqueueHead(cur, int(cur.prio))
		s.trace(EvState, cur, "ready", "preempted")
	}
	t, _, ok := s.ready.DequeueMax()
	if !ok {
		return nil
	}
	return t
}

// contextSwitch performs the thread context switch: flush the current
// register windows (kernel trap), load the new thread's frame (window
// underflow trap on its first restore), swap errno, transfer control.
// Called with both flags already clear. Returns when the *calling* thread
// is dispatched again — or never, if the caller terminated.
func (s *System) contextSwitch(next *Thread) {
	prev := s.current
	s.stats.ContextSwitches++

	// Switching away from a thread that is inside the universal signal
	// handler: the handler frame stays pending on its stack, so all
	// signals must be disabled across the switch to bound stack growth
	// — the second sigsetmask of the per-signal budget. The resumed
	// side re-enables in park.
	if s.inUniversal > 0 && !s.maskedForSwitch {
		if !s.universalCharged {
			s.universalCharged = true
			s.preSwitchMask = s.proc.Sigsetmask(unixkern.FullSigset())
		} else {
			s.preSwitchMask = s.proc.Mask()
			s.proc.RestoreMask(unixkern.FullSigset())
		}
		s.maskedForSwitch = true
	}

	s.cpu.ChargeFlushWindows()
	s.cpu.ChargeInstr(instrSwitchFixed)
	s.cpu.ChargeWindowUnderflow()

	s.current = next
	next.state = StateRunning
	next.Dispatches++
	s.trace(EvState, next, "running", "")
	// The outgoing quantum dies with the switch; the incoming thread's
	// quantum is armed when it reaches user code.
	s.cancelSliceTimer()

	// A terminated thread, or a continuation parking at a declared
	// operation, releases its runner before the incoming thread is
	// bound, so a thread that needs a runner reuses it immediately: the
	// baton then never leaves the runner's goroutine (passBaton). A
	// runner rebound later instead may still be unwinding; the rebind's
	// resume waits in its buffered channel.
	exiting := prev.state == StateTerminated
	handoff := s.contHandoff && !exiting
	from := prev.runner // still bound to prev unless released below
	if exiting {
		s.releaseRunner(prev)
	}
	if handoff {
		prev.contParked = true
		s.stats.ContParked++
		s.releaseRunner(prev)
	}
	if next.runner == nil {
		s.bindRunner(next)
	}

	if handoff {
		// leave passes the baton itself, after its last read of the
		// parked thread; record the selected thread for it.
		s.contBaton = next
		return
	}

	// Everything after a send may run concurrently with the new thread,
	// so the exit decision is taken first: a terminated caller returns
	// (its runner unwinds, and steps again if it kept the baton),
	// everyone else parks. A thread that parks still holds its runner,
	// so next cannot be bound to it and the baton is a send. A system
	// shutdown that lands in this window is delivered through the
	// runner's channel as a kill message.
	s.passBaton(next, from)
	if exiting {
		return
	}
	s.park(from)
}

// unmaskAfterSwitch runs on the context a switch resumed. If signals were
// disabled across the switch out of a universal handler, it re-enables
// them (sigreturn-style, no extra system call).
func (s *System) unmaskAfterSwitch() {
	if s.maskedForSwitch {
		s.maskedForSwitch = false
		s.proc.RestoreMask(s.preSwitchMask)
	}
}

// idleStep advances virtual time to the next pending event when no thread
// is ready. With no event to wait for, every live thread is blocked
// forever: a deadlock.
func (s *System) idleStep() {
	at, ok := s.kern.NextEventAt()
	if !ok {
		if !s.clock.Governed() {
			s.deadlock()
		}
		// A governed clock belongs to a fleet host, and another host
		// may still land an event here. Sleep on the clock until
		// something arrives (the governor parks us and wakes us at the
		// arrival) — or the fabric, having seen every host asleep like
		// this, declares fleet-wide deadlock and kills the run.
		s.clock.AdvanceTo(vtime.Infinity)
		s.kern.Poll()
		return
	}
	if at > s.clock.Now() {
		s.clock.AdvanceTo(at)
	}
	// Events post signals; the kernel flag is set, so the universal
	// handler logs them into caughtInKernel for the dispatch loop.
	s.kern.Poll()
}

// makeReady transitions a thread to ready and requests a dispatcher run at
// kernel exit. Head placement is used for threads whose boosted priority
// was just reset (the paper's recommendation); everything else enqueues at
// the tail.
func (s *System) makeReady(t *Thread, atHead bool) {
	if t.state == StateReady || t.state == StateRunning || t.state == StateTerminated {
		panic(fmt.Sprintf("core: makeReady(%v) in state %v", t, t.state))
	}
	t.state = StateReady
	t.verb = verbNone
	s.cpu.ChargeInstr(instrReadyQueueOp)
	if atHead {
		s.ready.EnqueueHead(t, int(t.prio))
	} else {
		s.ready.Enqueue(t, int(t.prio))
	}
	s.dispatcherFlag = true
	s.trace(EvState, t, "ready", "")
}

// waitOp is the frame of one blocking operation: its operands, its
// results, and how far it got. Each blocking operation (sleepOp,
// yieldOp, lockOp, condWait, joinOp, fdWait) is written once, as a
// function over this frame split at its park: phase 0 runs up to the
// park, phase 1 after it. The park (block or leave) is the one step
// that differs between the thread representations. An inline call
// keeps the frame on its runner's stack and leaves the kernel through
// leaveKernel, continuing past the park when the thread runs again. A
// continuation's declared operation keeps the frame in its Cont: the
// park releases the runner and reports parked, the operation returns
// at once, and contSteps re-enters it at phase 1 once the thread is
// dispatched again.
type waitOp struct {
	fd       unixkern.FD
	phase    uint8 // 0 before the park, 1 after
	declared bool  // a continuation's declared operation (see leave)
	timed    bool  // condWait: TimedWait(d) rather than Wait

	// Operands.
	verb      FDVerb // fdWait: what the jacket call does, and its direction
	d         vtime.Duration
	deadline  vtime.Time
	blockedAt vtime.Time
	fdop      FDOp
	mu        *Mutex
	cv        *Cond
	target    *Thread

	// Err is the operation's error result.
	Err error
	// N is a descriptor operation's byte count: its request until an
	// attempt completes, the bytes moved after (see fdWait).
	N int
	// Rem is Sleep's remaining-time result.
	Rem vtime.Duration
	// Val is Join's exit-status result.
	Val any
}

// fail ends the operation with errno e, which also becomes the calling
// thread's errno.
func (w *waitOp) fail(t *Thread, e Errno) (parked bool) {
	t.errno = e
	w.Err = e.Or()
	return false
}

// block marks the current thread blocked at a blocking operation's park
// point, doing verb, and hands the processor over (see leave). The
// caller has already recorded the object of the wait. Must be called
// inside the kernel.
func (s *System) block(declared bool, verb waitVerb) (parked bool) {
	t := s.current
	t.state = StateBlocked
	t.verb = verb
	s.cancelSliceTimer()
	if s.tracer != nil {
		s.trace(EvState, t, "blocked", s.waitLabel(t))
	}
	s.dispatcherFlag = true
	return s.leave(declared)
}

// leave exits the kernel at a park point, where the dispatcher always
// runs. An inline call leaves through leaveKernel and returns
// (with the kernel flag clear and fake calls drained) once the thread is
// dispatched again. A continuation's declared operation dispatches in
// handoff mode instead: contextSwitch releases the runner and records
// the selected thread in contBaton, and leave passes it the baton after
// its last read of the parked thread. It then reports parked, and the
// caller must unwind without touching the thread.
func (s *System) leave(declared bool) (parked bool) {
	if !declared {
		s.leaveKernel()
		return false
	}
	r := s.current.runner
	// The kernel-exit decision hooks never fire here — the thread's
	// state is not Running at a park point, exactly as in leaveKernel.
	s.contHandoff = true
	s.dispatch()
	s.contHandoff = false
	if next := s.contBaton; next != nil {
		s.contBaton = nil
		s.passBaton(next, r)
		return true
	}
	// Reselected: this thread was made ready again during the dispatch
	// (restart-arc signal handling) and chosen without a switch. Finish
	// the kernel exit as leaveKernel would.
	s.pollOutsideKernel()
	s.drainFakeCalls()
	s.armSliceOnUserReturn()
	return false
}

// setPriority changes a thread's current priority, repositioning it in
// whatever queue it occupies. atHead controls ready-queue placement at the
// new level.
func (s *System) setPriority(t *Thread, newPrio int, atHead bool) {
	if int(t.prio) == newPrio {
		return
	}
	old := int(t.prio)
	s.cpu.ChargeInstr(instrReadyQueueOp)
	switch t.state {
	case StateReady:
		if !s.ready.Remove(t, int(t.prio)) {
			// Perverted policies may have queued the thread at a level
			// other than its priority.
			s.ready.RemoveAny(t)
		}
		t.prio = int8(newPrio)
		if atHead {
			s.ready.EnqueueHead(t, newPrio)
		} else {
			s.ready.Enqueue(t, newPrio)
		}
		s.dispatcherFlag = true
	case StateRunning:
		t.prio = int8(newPrio)
		// Lowering the running thread may let a ready thread preempt.
		s.dispatcherFlag = true
	case StateBlocked:
		t.prio = int8(newPrio)
		// Joiners keep their fixed level: they all wake at once.
		if l := s.waitListOf(t); l != nil && t.BlockReason() != BlockJoin {
			l.unlink(t)
			l.push(t, newPrio)
		}
	default:
		t.prio = int8(newPrio)
	}
	if s.tracer != nil {
		// Formatting stays behind the tracer check: the interned names
		// make the common case allocation-free even when tracing.
		s.trace(EvPrio, t, prioName(newPrio), "from "+prioName(old))
	}
}

// --- Time slicing -----------------------------------------------------------

// armSliceOnUserReturn starts the round-robin quantum for the current
// thread at the moment control returns to its user code — the
// ITIMER_VIRTUAL view of a time slice, which guarantees the quantum
// measures user execution, not the dispatch and signal-return overhead
// (otherwise a quantum shorter than that overhead would thrash forever
// without progress). The quantum rides a standing interval timer the
// library armed at initialization, so no system call is charged.
// Repeated kernel exits within one dispatch do not reset the quantum.
func (s *System) armSliceOnUserReturn() {
	t := s.current
	if t == nil || t.policy != SchedRR || s.finished || t.state != StateRunning {
		return
	}
	if s.sliceFor == t && s.sliceTimer != 0 {
		return
	}
	s.cancelSliceTimer()
	s.sliceFor = t
	s.sliceUserMark = t.userNS
	s.sliceTimer = s.kern.ArmQuantum(s.proc, s.quantum, t)
}

// cancelSliceTimer disarms any running quantum timer.
func (s *System) cancelSliceTimer() {
	if s.sliceTimer != 0 {
		s.kern.DisarmQuantum(s.sliceTimer)
	}
	s.sliceTimer = 0
	s.sliceFor = nil
}

// --- User-facing scheduling calls -------------------------------------------

// Yield voluntarily releases the processor: the calling thread moves to
// the tail of its priority queue (sched_yield).
func (s *System) Yield() {
	var w waitOp
	s.yieldOp(&w)
}

// yieldOp is Yield over a frame (see waitOp). The thread parks ready,
// not blocked.
func (s *System) yieldOp(w *waitOp) (parked bool) {
	if w.phase != 0 {
		return false
	}
	s.enterKernel()
	t := s.current
	t.state = StateReady
	s.cpu.ChargeInstr(instrReadyQueueOp)
	s.ready.Enqueue(t, int(t.prio))
	s.trace(EvState, t, "ready", "yield")
	s.dispatcherFlag = true
	w.phase = 1
	return s.leave(w.declared)
}

// Compute models d worth of user computation by the calling thread.
// Virtual time advances in steps, delivering any timer or I/O events that
// come due — including the round-robin quantum, so a computing thread is
// preempted exactly as the paper's SIGALRM-driven time slicing would.
func (s *System) Compute(d vtime.Duration) {
	if d < 0 {
		panic("core: negative compute")
	}
	remaining := d
	for remaining > 0 {
		advanced, due := s.clock.Step(remaining)
		remaining -= advanced
		s.current.userNS += int64(advanced)
		if due {
			// An event is due at the current instant: deliver it. The
			// kernel flag is clear (user code), so handling is
			// immediate and may context switch away and back.
			polled := s.kern.Poll()
			if polled == 0 && advanced == 0 {
				panic("core: Compute stalled on an event that never fires")
			}
			if polled > 0 {
				s.drainFakeCalls()
				s.armSliceOnUserReturn()
			}
		}
	}
}

// SetSchedParam changes a thread's base priority and policy
// (pthread_setschedparam). A running thread whose priority drops may be
// preempted; a ready thread is requeued at the tail of its new level.
func (s *System) SetSchedParam(t *Thread, policy Policy, prio int) error {
	if err := s.checkThread(t); err != OK {
		return err.Or()
	}
	if !validPrioPolicy(prio, policy) {
		return EINVAL.Or()
	}
	s.enterKernel()
	t.policy = policy
	boost := int(t.prio) - int(t.basePrio)
	if boost < 0 {
		boost = 0
	}
	t.basePrio = int8(prio)
	s.setPriority(t, prio+boost, false)
	s.leaveKernel()
	return nil
}

// GetSchedParam reads a thread's policy and base priority.
func (s *System) GetSchedParam(t *Thread) (Policy, int, error) {
	if err := s.checkThread(t); err != OK {
		return 0, 0, err.Or()
	}
	return t.policy, int(t.basePrio), nil
}

func validPrioPolicy(prio int, policy Policy) bool {
	if policy != SchedFIFO && policy != SchedRR {
		return false
	}
	return prio >= 0 && prio <= 31
}

// checkThread validates a thread handle.
func (s *System) checkThread(t *Thread) Errno {
	if t == nil || t.sys != s {
		return EINVAL
	}
	if t.dead {
		return ESRCH
	}
	return OK
}
