package core

import "pthreads/internal/sched"

// Perverted scheduling: debug policies that force context switches at
// synchronization and kernel-exit points to simulate, on a uniprocessor,
// the interleavings a multiprocessor would produce. Unlike time-sliced
// debugging, the forced switch points depend only on the program's own
// actions (and a seeded PRNG), so every run is exactly reproducible.

// PervertPolicy selects a perverted scheduling policy.
type PervertPolicy int

const (
	// PervertNone disables perverted scheduling.
	PervertNone PervertPolicy = iota
	// PervertMutexSwitch forces a context switch on each successful
	// locking of a mutex: the current thread moves to the tail of its
	// priority queue and the head of the ready queue runs next.
	PervertMutexSwitch
	// PervertRROrdered forces a context switch on every exit from the
	// Pthreads kernel: the current thread moves to the tail of the
	// lowest priority queue, so every other ready thread runs first.
	PervertRROrdered
	// PervertRandom forces a context switch on kernel exit whenever the
	// next PRNG bit is set: the current thread moves to the tail of the
	// lowest priority queue and the next thread is chosen at random
	// from the ready queue.
	PervertRandom
)

// String names the policy.
func (p PervertPolicy) String() string {
	switch p {
	case PervertNone:
		return "none"
	case PervertMutexSwitch:
		return "mutex-switch"
	case PervertRROrdered:
		return "rr-ordered-switch"
	case PervertRandom:
		return "random-switch"
	}
	return "unknown-pervert"
}

// pervertKernelExit applies the RR-ordered and random policies. Called by
// leaveKernel while the kernel flag is still set and the current thread is
// still running; it repositions the current thread and requests a
// dispatcher run.
func (s *System) pervertKernelExit() {
	cur := s.current
	switch s.cfg.Pervert {
	case PervertRROrdered:
		if s.ready.Empty() {
			return
		}
		cur.state = StateReady
		s.ready.Enqueue(cur, sched.MinPrio)
		s.dispatcherFlag = true
		s.trace(EvState, cur, "ready", "perverted rr-ordered switch")
	case PervertRandom:
		// Test for a switch candidate *before* consuming a PRNG bit
		// (matching PervertRROrdered): drawing a bit when the ready
		// queue is empty and no switch is possible would desynchronize
		// the random stream from actual decision points, making seed
		// sweeps incomparable across workloads with different idle
		// patterns.
		if s.ready.Empty() {
			return
		}
		// The coin flip is a decision either way (switch or stay), so
		// draw and decision are counted together; the Intn(n) pick in
		// selectNext counts its decision only when the picked thread is
		// actually dispatched.
		s.prngDraws++
		s.prngDecisions++
		if s.rng().Intn(2) == 0 {
			return
		}
		cur.state = StateReady
		s.ready.Enqueue(cur, sched.MinPrio)
		s.randomPick = true
		s.dispatcherFlag = true
		s.trace(EvState, cur, "ready", "perverted random switch")
	}
}

// pervertMutexSwitch forces the mutex-switch policy's context switch
// after a successful lock: the current thread is repositioned at the tail
// of its own priority queue. Called outside the kernel, right after the
// acquisition.
func (s *System) pervertMutexSwitch() {
	s.enterKernel()
	cur := s.current
	if cur.state == StateRunning && !s.ready.Empty() {
		cur.state = StateReady
		s.ready.Enqueue(cur, int(cur.prio))
		s.dispatcherFlag = true
		s.trace(EvState, cur, "ready", "perverted mutex switch")
	}
	s.leaveKernel()
}
