package core

import (
	"fmt"
	"strconv"

	"pthreads/internal/hw"
	"pthreads/internal/sched"
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
// The representation is purely host-side: every virtual charge, trace
// event, metrics call, and queue operation a continuation thread
// performs is a transcription of the goroutine path's, in the same
// order, so schedules stay bit-identical between the two
// representations (pinned by the lockstep tests in cont_lockstep_test.go).
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

// contOp identifies the declared blocking operation of a step.
type contOp int

const (
	contOpNone contOp = iota
	contOpFD
	contOpSleep
	contOpYield
	contOpLock
	contOpWait
	contOpTimedWait
	contOpJoin
)

// Cont is a continuation thread's resume descriptor: the recorded wait
// point, its operands, and the results the resumed step reads. It is
// the whole host-side cost of a parked thread beyond the TCB. Frames
// are arena-backed and recycled when the thread is reclaimed.
type Cont struct {
	s *System
	t *Thread

	first  bool // next dispatch is the thread's first (trampoline prologue)
	parked bool // currently parked without a goroutine

	next ContFunc // continuation recorded by the pending op (or next step)

	op      contOp
	opPhase int // 0 before the park, 1 after; drivers re-enter here

	// Operands of the declared operation.
	d         vtime.Duration
	deadline  vtime.Time
	blockedAt vtime.Time
	fd        unixkern.FD
	dir       FDDir
	what      string
	fdop      FDOp
	mu        *Mutex
	cv        *Cond
	target    *Thread

	// Arg is the creation argument (CreateCont's arg).
	Arg any
	// Ret is the thread's exit status when the last step returns.
	Ret any
	// Err is the declared operation's error result.
	Err error
	// N is a byte-count result slot (the I/O jacket writes it).
	N int
	// Rem is Sleep's remaining-time result.
	Rem vtime.Duration
	// Val is Join's exit-status result.
	Val any
	// Env is a scratch slot for jacket layers that thread their own
	// state through a step chain without a closure.
	Env any
}

// Self returns the continuation's thread handle.
func (k *Cont) Self() *Thread { return k.t }

// Sys returns the owning system.
func (k *Cont) Sys() *System { return k.s }

// declare records the step's blocking operation. A step gets one.
func (k *Cont) declare(op contOp, next ContFunc) {
	if k.op != contOpNone {
		panic("core: continuation step declared two blocking operations")
	}
	k.op = op
	k.opPhase = 0
	k.next = next
	k.Err = nil
}

// Sleep declares a Sleep(d) park; then runs after the sleep with k.Rem
// holding the remaining time (see System.Sleep).
func (k *Cont) Sleep(d vtime.Duration, then ContFunc) {
	k.d = d
	k.declare(contOpSleep, then)
}

// Yield declares a sched_yield park (see System.Yield).
func (k *Cont) Yield(then ContFunc) {
	k.declare(contOpYield, then)
}

// Lock declares a mutex acquisition; a contended wait parks without a
// goroutine. then runs with the mutex held (or k.Err set, see
// Mutex.Lock).
func (k *Cont) Lock(m *Mutex, then ContFunc) {
	k.mu = m
	k.declare(contOpLock, then)
}

// CondWait declares a condition wait (Cond.Wait); the mutex is held
// again when then runs, with k.Err as Wait's result.
func (k *Cont) CondWait(c *Cond, m *Mutex, then ContFunc) {
	k.cv, k.mu, k.d = c, m, -1
	k.declare(contOpWait, then)
}

// CondTimedWait declares a timed condition wait (Cond.TimedWait).
func (k *Cont) CondTimedWait(c *Cond, m *Mutex, d vtime.Duration, then ContFunc) {
	k.cv, k.mu, k.d = c, m, d
	k.declare(contOpTimedWait, then)
}

// Join declares a join on t (System.Join); then runs with k.Val holding
// the target's exit status and k.Err Join's result.
func (k *Cont) Join(t *Thread, then ContFunc) {
	k.target = t
	k.declare(contOpJoin, then)
}

// FDOp declares a blocking-jacket descriptor operation
// (System.FDBlockingOp); then runs with k.Err as the jacket result.
func (k *Cont) FDOp(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, op FDOp, then ContFunc) {
	k.fd, k.dir, k.what, k.d, k.fdop = fd, dir, what, timeout, op
	k.declare(contOpFD, then)
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
	select {
	case r.resume <- resumeMsg{kill: true}:
	default:
	}
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

// runnerStep resumes the bound thread. It returns false when the runner
// must die (system shutdown). Mirrors the trampoline's recover contract:
// killPanic tears the runner down silently; any other escaped panic is a
// crash of the simulated process.
func (s *System) runnerStep(r *contRunner) (ok bool) {
	t := r.t
	completed := false
	defer func() {
		rec := recover()
		switch {
		case rec == nil && completed:
			ok = true
		case rec == nil:
			s.finish(fmt.Errorf("%v: goroutine exited prematurely (runtime.Goexit, e.g. t.Fatal in thread code)", t), nil)
		default:
			if _, kill := rec.(killPanic); kill {
				return
			}
			s.finish(fmt.Errorf("panic in %v: %v", t, rec), nil)
		}
	}()

	// Mirror of park()'s post-receive mask restore.
	if s.maskedForSwitch {
		s.maskedForSwitch = false
		s.proc.RestoreMask(s.preSwitchMask)
	}
	s.contResume(t.cont)
	completed = true
	return
}

// contResume runs the thread until it parks or finishes; a finished
// thread exits through the ordinary termination path.
func (s *System) contResume(k *Cont) {
	status, exited := s.contBody(k)
	if exited {
		s.exitCurrent(status)
	}
}

// contBody is the continuation analogue of trampoline+callBody: run the
// kernel-exit tail owed from the dispatch that resumed us, then drive
// steps; convert Exit unwinding into a return value.
func (s *System) contBody(k *Cont) (status any, exited bool) {
	defer func() {
		if r := recover(); r != nil {
			if ep, isExit := r.(exitPanic); isExit {
				status, exited = ep.status, true
				return
			}
			panic(r)
		}
	}()
	if k.first {
		// First dispatch: the trampoline prologue (no poll — the
		// dispatching context already ran leaveKernel's tail).
		k.first = false
		s.drainFakeCalls()
		s.armSliceOnUserReturn()
	} else {
		// Wakeup from a declared park: the tail of the leaveKernel that
		// handed the processor away runs on the resumed side, exactly as
		// it does for a goroutine thread returning from park.
		s.pollOutsideKernel()
		s.drainFakeCalls()
		s.armSliceOnUserReturn()
	}
	if s.contSteps(k) {
		return nil, false
	}
	return k.Ret, true
}

// contSteps drives the step machine: run the pending declared operation
// (if any), then successive steps until one parks or no continuation
// remains.
func (s *System) contSteps(k *Cont) (parked bool) {
	for {
		if k.op != contOpNone {
			if s.contDrive(k) {
				return true
			}
			k.op, k.opPhase = contOpNone, 0
			continue
		}
		next := k.next
		if next == nil {
			return false
		}
		k.next = nil
		next(k)
	}
}

// contDrive dispatches to the declared operation's driver. Each driver
// is a phase-numbered transcription of its goroutine original with
// identical virtual charges, traces, and metrics ordering; it returns
// true when the thread parked (the runner is already released and the
// baton sent — the caller must unwind without touching k or its thread).
func (s *System) contDrive(k *Cont) (parked bool) {
	switch k.op {
	case contOpFD:
		return s.contDriveFD(k)
	case contOpSleep:
		return s.contDriveSleep(k)
	case contOpYield:
		return s.contDriveYield(k)
	case contOpLock:
		return s.contDriveLock(k)
	case contOpWait, contOpTimedWait:
		return s.contDriveWait(k)
	case contOpJoin:
		return s.contDriveJoin(k)
	}
	panic("core: unknown continuation operation")
}

// contBlock is blockCurrent with the goroutine park replaced by the
// continuation handoff. Returns true when the thread parked.
func (s *System) contBlock(k *Cont, reason BlockReason, what string) bool {
	t := k.t
	t.state = StateBlocked
	t.blockReason = reason
	t.waitingFor = what
	s.cancelSliceTimer()
	s.trace(EvState, t, "blocked", what)
	s.mState(t)
	s.dispatcherFlag = true
	return s.contLeave(t)
}

// contLeave is the continuation analogue of leaveKernel at a declared
// park point: run the dispatcher in handoff mode, then either pass the
// baton to the selected thread (parked — the calling runner is already
// released and must unwind without touching shared state), or, if the
// dispatcher reselected this thread without a switch, run leaveKernel's
// tail and continue inline.
func (s *System) contLeave(t *Thread) (parked bool) {
	if !s.kernelFlag {
		panic("core: contLeave outside kernel")
	}
	r := t.runner
	// The kernel-exit decision hooks never fire here — the thread's
	// state is not Running at a park point, exactly as in leaveKernel.
	s.exploreSquelch = false
	s.contHandoff = true
	s.dispatch()
	s.contHandoff = false
	if next := s.contBaton; next != nil {
		// All reads of the parked thread are done; passing the baton is
		// the last action before the unwind.
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

// --- Drivers ----------------------------------------------------------------
//
// Each driver transcribes its goroutine original (named in the comment)
// with blockCurrent replaced by contBlock and the post-park code re-entered
// at opPhase 1 after a wakeup. The originals stay untouched; the lockstep
// tests pin byte-identical schedules between the two.

// contDriveSleep transcribes System.Sleep.
func (s *System) contDriveSleep(k *Cont) bool {
	t := k.t
	if k.opPhase == 0 {
		s.TestCancel()
		if k.d <= 0 {
			k.Rem = 0
			return false
		}
		k.deadline = s.clock.Now().Add(k.d)
		s.enterKernel()
		t.waitTimer = s.kern.SetTimer(s.proc, sigalrm, k.d, t, false)
		t.wake = wakeNone
		what := "sleep"
		if s.tracer != nil {
			what = fmt.Sprintf("sleep %v", k.d)
		}
		k.opPhase = 1
		if s.contBlock(k, BlockSleep, what) {
			return true
		}
	}
	switch t.wake {
	case wakeTimer:
		k.Rem = 0
	case wakeCancel:
		s.TestCancel() // exits
		k.Rem = 0
	case wakeInterrupt:
		if rem := k.deadline.Sub(s.clock.Now()); rem > 0 {
			k.Rem = rem
		} else {
			k.Rem = 0
		}
	default:
		panic("core: sleep woke with unexpected cause")
	}
	return false
}

// contDriveYield transcribes System.Yield.
func (s *System) contDriveYield(k *Cont) bool {
	t := k.t
	if k.opPhase == 0 {
		s.enterKernel()
		t.state = StateReady
		s.cpu.ChargeInstr(instrReadyQueueOp)
		s.ready.Enqueue(t, t.prio)
		s.trace(EvState, t, "ready", "yield")
		s.mState(t)
		s.dispatcherFlag = true
		k.opPhase = 1
		if s.contLeave(t) {
			return true
		}
	}
	return false
}

// contDriveLock transcribes Mutex.Lock + lockSlow.
func (s *System) contDriveLock(k *Cont) bool {
	t := k.t
	m := k.mu
	if k.opPhase == 0 {
		if m.owner == t {
			t.errno = EDEADLK
			k.Err = EDEADLK.Or()
			return false
		}
		if m.protocol == ProtocolCeiling && t.prio > m.ceiling {
			t.errno = EINVAL
			k.Err = EINVAL.Or()
			return false
		}
		if m.eng != nil {
			// Engine mutexes spin with yields; the runner stays bound.
			s.engineLock(m)
			return false
		}
		if s.acquireAtomic(m, t) {
			s.afterAcquire(m, t)
			return false
		}
		// lockSlow, split at the park.
		s.enterKernel()
		s.stats.MutexContentions++
		m.Contentions++
		if s.tracer != nil {
			s.traceObj(EvMutex, t, m.name, "block", fmt.Sprintf("owner=%v", m.owner))
		}
		if m.lockWord.Load() == 0 {
			s.atoms.TAS(&m.lockWord)
			m.ownerWord.Store(int64(t.id))
			m.owner = t
			s.leaveKernel()
			s.afterAcquire(m, t)
			return false
		}
		if s.metrics != nil {
			s.metrics.MutexContended(s.clock.Now(), t, m, m.owner)
		}
		if m.protocol == ProtocolInherit {
			s.boostOwnerChain(m, t.prio)
		}
		t.waitingMutex = m
		m.waiters.Enqueue(t, t.prio)
		t.wake = wakeNone
		k.opPhase = 1
		if s.contBlock(k, BlockMutex, m.waitName) {
			return true
		}
	}
	// Woken: the unlocker handed us ownership directly.
	s.cpu.ChargeInstr(instrLockResume)
	if m.owner != t {
		panic(fmt.Sprintf("core: %v woke from mutex %s without ownership", t, m.name))
	}
	t.waitingMutex = nil
	if s.tracer != nil {
		s.traceObj(EvMutex, t, m.name, "lock", "after contention")
	}
	if s.explorer != nil {
		s.exploreLockPoint()
	} else if s.cfg.Pervert == PervertMutexSwitch {
		s.pervertMutexSwitch()
	}
	return false
}

// contDriveWait transcribes Cond.wait (Wait and TimedWait).
func (s *System) contDriveWait(k *Cont) bool {
	t := k.t
	c, m := k.cv, k.mu
	if k.opPhase == 0 {
		if k.op == contOpTimedWait && k.d < 0 {
			k.Err = EINVAL.Or()
			return false
		}
		if m == nil || m.owner != t {
			t.errno = EPERM
			k.Err = EPERM.Or()
			return false
		}
		if c.mutex != nil && c.mutex != m {
			t.errno = EINVAL
			k.Err = EINVAL.Or()
			return false
		}
		if m.eng != nil {
			t.errno = EINVAL
			k.Err = EINVAL.Or()
			return false
		}
		s.TestCancel()

		s.enterKernel()
		s.stats.CondWaits++
		s.cpu.ChargeInstr(instrCondEnqueue)
		c.mutex = m
		t.waitingCond = c
		t.condMutex = m
		t.wake = wakeNone
		c.waiters.Enqueue(t, t.prio)
		s.traceObj(EvCond, t, c.name, "wait", "")
		if s.metrics != nil {
			s.metrics.CondWaitStart(s.clock.Now(), t, c)
		}
		if k.d >= 0 {
			t.cvTag.t, t.cvTag.c = t, c
			t.waitTimer = s.kern.SetTimerInternal(s.proc, sigalrm, k.d, &t.cvTag)
		}
		s.unlockForWaitLocked(m)
		k.opPhase = 1
		if s.contBlock(k, BlockCond, c.waitName) {
			return true
		}
	}
	// Woken. Every path below ends with the mutex held.
	s.cpu.ChargeInstr(instrCondResume)
	t.waitingCond = nil
	t.condMutex = nil
	if t.waitTimer != 0 {
		s.kern.DisarmInternal(t.waitTimer)
		t.waitTimer = 0
	}
	switch t.wake {
	case wakeCondSignal, wakeGrant:
	case wakeInterrupt:
		// Spurious wakeup; the fake-call wrapper reacquired the mutex.
	case wakeTimeout:
		s.mutexLock(m)
		c.dropMutexIfIdle()
		s.TestCancel()
		t.errno = ETIMEDOUT
		k.Err = ETIMEDOUT.Or()
		return false
	case wakeCancel:
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

// contDriveJoin transcribes System.Join.
func (s *System) contDriveJoin(k *Cont) bool {
	t := k.t
	target := k.target
	blocked := k.opPhase != 0
	if k.opPhase == 0 {
		if err := s.checkThread(target); err != OK {
			k.Err = err.Or()
			return false
		}
		if target == t {
			t.errno = EDEADLK
			k.Err = EDEADLK.Or()
			return false
		}
		if target.detached {
			t.errno = EINVAL
			k.Err = EINVAL.Or()
			return false
		}
		s.TestCancel()

		s.enterKernel()
		if target.state == StateNew {
			s.activateLocked(target)
		}
		if target.state != StateTerminated {
			t.joinTarget = target
			target.joiners = append(target.joiners, t)
			t.wake = wakeNone
			k.opPhase = 1
			if s.contBlock(k, BlockJoin, "join "+target.String()) {
				return true
			}
			blocked = true
		} else {
			s.leaveKernel()
		}
	}
	if blocked && t.wake == wakeCancel {
		s.TestCancel() // exits
	}
	k.Val = target.retval
	if s.tracer != nil {
		s.traceObj(EvJoin, t, target.name, strconv.Itoa(int(target.id)), "")
	}
	if s.spans != nil {
		s.spans.ThreadJoined(s.clock.Now(), int32(t.id), int32(target.id),
			t.name, target.name)
	}
	s.enterKernel()
	s.reclaim(target)
	s.leaveKernel()
	return false
}

// contDriveFD transcribes fdBlocking (the FDOp form).
func (s *System) contDriveFD(k *Cont) bool {
	t := k.t
	fd, dir, timeout, op := k.fd, k.dir, k.d, k.fdop
	if k.opPhase == 0 {
		s.TestCancel()
		if timeout > 0 {
			k.deadline = s.clock.Now().Add(timeout)
		}
		s.enterKernel()
	} else if !s.contFDWake(k) {
		return false
	}
	for {
		done, more := op.Attempt()
		if done {
			if more {
				s.fdWakeTop(fd, dir, "chain")
			}
			s.leaveKernel()
			return false
		}
		if t.cancelState == CancelControlled && t.cancelPending {
			s.leaveKernel()
			s.TestCancel() // exits
		}
		if timeout > 0 {
			rem := k.deadline.Sub(s.clock.Now())
			if rem <= 0 {
				s.stats.FDTimeouts++
				if s.tracer != nil {
					s.traceObj(EvIO, t, s.fdLabel(fd, dir), "timeout", k.what)
				}
				s.leaveKernel()
				k.Err = ETIMEDOUT.Or()
				return false
			}
			t.fdTag.t = t
			t.waitTimer = s.kern.SetTimerInternal(s.proc, sigalrm, rem, &t.fdTag)
		}
		s.fdEnqueue(fd, dir, t)
		t.wake = wakeNone
		s.stats.FDWaits++
		if s.tracer != nil {
			s.traceObj(EvIO, t, s.fdLabel(fd, dir), "block", k.what)
		}
		k.blockedAt = s.clock.Now()
		s.fdBlockedNow++
		k.opPhase = 1
		if s.contBlock(k, BlockFD, k.what) {
			return true
		}
		if !s.contFDWake(k) {
			return false
		}
	}
}

// contFDWake runs fdBlocking's post-park bookkeeping and wake switch.
// It returns true when the wake was a designation (wakeIO) — the caller
// retries the operation with the kernel flag set again — and false when
// the jacket call completed with k.Err as its result.
func (s *System) contFDWake(k *Cont) (retry bool) {
	t := k.t
	fd, dir := k.fd, k.dir
	s.fdBlockedNow--
	s.stats.FDBlockedNS += int64(s.clock.Now().Sub(k.blockedAt))
	if s.metrics != nil {
		s.metrics.FDBlocked(k.blockedAt, t, int(fd), dir, s.clock.Now().Sub(k.blockedAt))
	}
	if t.waitTimer != 0 {
		s.kern.DisarmInternal(t.waitTimer)
		t.waitTimer = 0
	}
	switch t.wake {
	case wakeIO:
		s.enterKernel()
		return true
	case wakeTimeout:
		s.stats.FDTimeouts++
		k.Err = ETIMEDOUT.Or()
		return false
	case wakeInterrupt:
		s.stats.FDEINTRs++
		if s.tracer != nil {
			s.traceObj(EvIO, t, s.fdLabel(fd, dir), "eintr", k.what)
		}
		k.Err = EINTR.Or()
		return false
	case wakeCancel:
		s.TestCancel() // exits via the cancellation machinery
		k.Err = EINTR.Or()
		return false
	default:
		panic("core: fd wait woke with unexpected cause")
	}
}

// CreateCont starts a continuation thread whose first step is fn
// (pthread_create for the parked-continuation representation). The
// validation, charges, traces, and activation are identical to Create's,
// so the two representations schedule bit-identically; only the host
// backing differs — no goroutine is created until first dispatch, and
// none is held across declared parks.
func (s *System) CreateCont(attr Attr, fn ContFunc, arg any) (*Thread, error) {
	if fn == nil {
		return nil, EINVAL.Or()
	}
	if attr.InheritSched && s.current != nil {
		attr.Priority = s.current.basePrio
		attr.Policy = s.current.policy
	}
	if attr.Priority == 0 && attr.StackSize == 0 && !sched.ValidPrio(attr.Priority) {
		attr.Priority = sched.DefaultPrio
	}
	if !sched.ValidPrio(attr.Priority) {
		return nil, EINVAL.Or()
	}
	if attr.StackSize != 0 && attr.StackSize < hw.MinStackSize {
		return nil, EINVAL.Or()
	}

	s.enterKernel()
	t := s.allocTCB(attr)
	k := s.contArena.Get()
	k.s, k.t, k.first, k.next, k.Arg = s, t, true, fn, arg
	t.cont = k
	s.addThread(t)
	s.liveCnt++
	s.stats.ThreadsCreated++
	s.stats.ContThreads++
	s.trace(EvState, t, "created", attr.Name)
	if s.tracer != nil {
		s.traceObj(EvFork, s.current, t.name, strconv.Itoa(int(t.id)), "")
	}
	if s.spans != nil && s.current != nil {
		s.spans.ThreadForked(s.clock.Now(), int32(s.current.id), int32(t.id),
			s.current.name, t.name)
	}
	if attr.Lazy {
		t.state = StateNew
		t.waitingFor = "activation"
		s.mState(t)
	} else {
		s.activateLocked(t)
	}
	s.leaveKernel()
	return t, nil
}
