package core

// This file implements the one host execution context of a thread: a
// pooled runner goroutine. A thread holds no goroutine of its own. It
// binds a runner at its first dispatch; a Create thread keeps it until
// it exits, and a continuation thread releases it at every declared
// park (see cont.go) and binds one again at its wakeup. While bound,
// the runner IS the thread's execution context: inline blocking — a
// contended Lock, a Dial handshake, a preemption, a cleanup handler —
// parks the runner on its channel and resumes there. The runner
// released by a parking or exiting thread is the one the dispatcher
// rebinds first, so a switch into a thread that holds no runner stays
// on one goroutine: the runner unwinds the leaving frames and runs the
// next thread from runnerLoop, with no channel operation.

// runner is one pooled runner goroutine. While bound, it is the
// thread's execution context; unbound runners sit on the idle list
// waiting for the next bind.
type runner struct {
	resume chan resumeMsg
	t      *Thread // bound thread; nil while idle (kernel-context access only)
	// again marks a baton the runner passed to itself: the dispatcher
	// bound the runner's next thread to the runner that was leaving, so
	// runnerLoop resumes it directly once the leaving frames unwind.
	// Only the runner's own goroutine reads or writes it.
	again bool
}

// resumeMsg wakes a parked runner. kill tears the runner down during
// system shutdown.
type resumeMsg struct {
	kill bool
}

// runnerIdleMax bounds the idle-runner pool; excess runners are killed
// on release instead of pooled.
const runnerIdleMax = 16

// bindRunner attaches a runner goroutine to a thread about to be
// dispatched without one. Runs in kernel context (single-threaded), so
// the pool needs no lock.
func (s *System) bindRunner(t *Thread) {
	var r *runner
	if n := len(s.runnerIdle); n > 0 {
		r = s.runnerIdle[n-1]
		s.runnerIdle[n-1] = nil
		s.runnerIdle = s.runnerIdle[:n-1]
	} else {
		r = &runner{resume: make(chan resumeMsg, 1)}
		s.runnerLive++
		if s.runnerLive > s.runnerPeak {
			s.runnerPeak = s.runnerLive
		}
		go s.runnerLoop(r)
	}
	r.t = t
	t.runner = r
	s.stats.RunnerBinds++
	if t.contParked {
		t.contParked = false
		s.stats.ContParked--
	}
}

// releaseRunner detaches a thread's runner, pooling or killing it. Runs
// in kernel context. The released runner's goroutine may still be
// unwinding toward its receive — any message sent to it (a rebind's
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
	sendKill(r)
}

// sendKill sends a kill to a runner. It never blocks: the channel is
// 1-buffered, and a full one already holds a message for the runner.
func sendKill(r *runner) {
	select {
	case r.resume <- resumeMsg{kill: true}:
	default:
	}
}

// passBaton transfers control to next, the thread just dispatched. from
// is the runner the calling context is leaving (nil when Run starts
// main). When the dispatcher bound next to that same runner, no
// goroutine changes hands: the runner marks itself to step again once
// the caller unwinds, and nothing is sent. Otherwise the resume goes on
// next's runner, and the send is the caller's last touch of the system.
func (s *System) passBaton(next *Thread, from *runner) {
	if from != nil && next.runner == from {
		s.stats.RunnerTrampolines++
		from.again = true
		return
	}
	s.stats.BatonSends++
	next.runner.resume <- resumeMsg{}
}

// park blocks the calling thread's runner until the thread is
// dispatched again.
func (s *System) park(r *runner) {
	if msg := <-r.resume; msg.kill {
		panic(killPanic{})
	}
	s.unmaskAfterSwitch()
}

// runnerLoop is the body of one runner goroutine: wait for a resume (a
// bind's baton), run the bound thread until it parks, exits, or the
// system finishes. A baton the runner passed to itself (r.again) is
// taken without the channel, after the shutdown checks the receive
// would make: a finished system or a pending kill ends the runner.
func (s *System) runnerLoop(r *runner) {
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
		} else if msg := <-r.resume; msg.kill {
			return
		}
		if !s.runnerStep(r) {
			return
		}
	}
}

// runnerStep resumes the bound thread until it parks, exits (through
// the ordinary termination path), or the system finishes. It returns
// false when the runner must die (see unwound).
func (s *System) runnerStep(r *runner) (ok bool) {
	t := r.t
	completed := false
	defer func() { ok = s.unwound(t, completed, recover()) }()
	s.unmaskAfterSwitch()
	if status, exited := s.runThread(t); exited {
		s.exitCurrent(status)
	}
	completed = true
	return
}

// runThread runs thread t from its dispatch: the kernel-exit tail owed
// from the dispatch that resumed it, then its body — t.fn for a Create
// thread, the step machine for a continuation. It converts Exit
// unwinding into a return value; exited is false when a continuation
// parked.
func (s *System) runThread(t *Thread) (status any, exited bool) {
	defer func() {
		if st, ok := exitStatus(recover()); ok {
			status, exited = st, true
		}
	}()
	// A wakeup from a declared park runs the tail of the leaveKernel
	// that handed the processor away, exactly as a thread returning from
	// park does. A first dispatch has no such tail: the dispatching
	// context already ran it.
	k := t.cont
	if k != nil {
		if !t.contFirst {
			s.pollOutsideKernel()
		}
		t.contFirst = false
	}
	s.drainFakeCalls()
	s.armSliceOnUserReturn()
	if k == nil {
		return t.fn(t.arg), true
	}
	if s.contSteps(k) {
		return nil, false
	}
	return k.Ret, true
}
