package core

import "pthreads/internal/vtime"

// Metrics hooks. The profiling subsystem (internal/metrics) observes the
// kernel through this interface the same way the exploration engine
// observes it through Explorer: the interface is defined here, the
// implementation lives outside, and every call site in the kernel is a
// pure nil check.
//
// The off-switch invariant: with Config.Metrics nil, none of these hooks
// charges a single virtual instruction, allocates, or touches any
// scheduling state. All charged virtual costs are byte-identical to a
// build without the subsystem — ptbench tables, ptreport output and
// ptexplore tokens do not move.
//
// The on-switch invariant: the hooks still charge no virtual cost (a
// profiler that perturbed the virtual clock would profile itself), and
// the sink is expected to allocate nothing per event once its tables are
// sized — the hook arguments are concrete types precisely so no call
// boxes into an interface{}.

// MetricsSink receives kernel-level profiling events. Timestamps are the
// virtual clock at the instant of the event, after any cost the operation
// itself charged. Implementations must not call back into the system
// beyond the bare accessors (Thread.Priority, Mutex.Owner, ...), which
// are safe under the baton-passing discipline because hooks run on the
// (single) executing goroutine.
type MetricsSink interface {
	// ThreadState fires after every scheduling-state or block-reason
	// change: dispatches, preemptions, blocks, wakeups, creation (lazy
	// threads report StateNew), termination, and the cond→mutex
	// reacquisition that changes the reason while the state stays
	// Blocked.
	ThreadState(at vtime.Time, t *Thread, state State, reason BlockReason)

	// HandlerEnter/HandlerExit bracket a user signal handler running via
	// a fake call on t's stack (attribution of "in-handler" time).
	HandlerEnter(at vtime.Time, t *Thread)
	HandlerExit(at vtime.Time, t *Thread)

	// MutexContended fires when a lock attempt is about to suspend, after
	// the in-kernel re-test failed; owner is the holder at that instant.
	MutexContended(at vtime.Time, t *Thread, m *Mutex, owner *Thread)
	// MutexAcquired fires on every acquisition: contended=false for the
	// user-mode fast path (and the in-kernel re-test), contended=true at
	// the grant that hands ownership to a suspended waiter. A grant fires
	// at grant time, not when the waiter is next dispatched — ownership
	// (and hold time) starts there.
	MutexAcquired(at vtime.Time, t *Thread, m *Mutex, contended bool)
	// MutexReleased fires on every release, including the release half of
	// a condition wait.
	MutexReleased(at vtime.Time, t *Thread, m *Mutex)

	// CondWaitStart/CondWaitEnd bracket a condition wait from enqueue to
	// the instant the waiter leaves the condition queue (signal,
	// broadcast, timeout, handler interruption, or cancellation) — mutex
	// reacquisition is accounted separately through the mutex hooks.
	CondWaitStart(at vtime.Time, t *Thread, c *Cond)
	CondWaitEnd(at vtime.Time, t *Thread, c *Cond)

	// FDBlocked reports one completed suspension on a per-descriptor wait
	// queue: the thread blocked at 'at' and stayed blocked for 'wait'.
	FDBlocked(at vtime.Time, t *Thread, fd int, dir FDDir, wait vtime.Duration)
}

// mState reports t's (already updated) state to the metrics sink.
func (s *System) mState(t *Thread) {
	if s.metrics != nil {
		s.metrics.ThreadState(s.clock.Now(), t, t.state, t.blockReason())
	}
}
