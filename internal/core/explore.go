package core

import "pthreads/internal/sched"

// Schedule-exploration hooks. The perverted policies of pervert.go sample
// interleavings blindly; the exploration engine (internal/explore) instead
// *controls* them: at every switch point the core asks an external
// Explorer which thread should run next, which turns a run into a
// replayable sequence of decisions and makes systematic search (PCT,
// bounded-preemption DFS) possible on top of the same deterministic
// baton-passing machinery.
//
// The off-switch invariant: with Config.Explorer nil, none of these hooks
// charges a single virtual instruction or touches any scheduling state —
// every call site is a nil check. All charged virtual costs are
// byte-identical to a build without the engine.

// SwitchPoint classifies an exploration decision point — the places where
// the perverted policies of the paper force context switches.
type SwitchPoint int

const (
	// PointKernelExit: the current thread is leaving the Pthreads kernel
	// (covers unlock, signal, create, and every other kernel section).
	PointKernelExit SwitchPoint = iota
	// PointLock: the current thread just acquired a mutex (the
	// mutex-switch policy's switch point, including the user-mode fast
	// path that never enters the kernel).
	PointLock
)

// String names the switch point.
func (p SwitchPoint) String() string {
	if p == PointLock {
		return "lock"
	}
	return "kernel-exit"
}

// Explorer is the scheduling-decision hook of the exploration engine. At
// every switch point the core reports the running thread and the ready
// set (in dispatch order: descending priority, FIFO within a level) and
// asks whether to preempt. Implementations must be deterministic
// functions of their own state and the call sequence: the same decisions
// reproduce the byte-identical run.
type Explorer interface {
	// ChooseAt returns preempt=false to let the current thread continue,
	// or preempt=true and pick in [0, len(ready)) to move the current
	// thread to the tail of the lowest priority level and dispatch
	// ready[pick] instead. ready is a scratch buffer only valid during
	// the call. With an empty ready set the decision is ignored.
	ChooseAt(point SwitchPoint, cur ThreadID, ready []ThreadID) (pick int, preempt bool)
}

// exploreAt consults the explorer at one switch point. Runs inside the
// kernel with the current thread still running.
func (s *System) exploreAt(point SwitchPoint) {
	cur := s.current
	n := s.ready.Len()
	s.exploreIDs = s.exploreIDs[:0]
	for i := 0; i < n; i++ {
		t, _, _ := s.ready.Nth(i)
		s.exploreIDs = append(s.exploreIDs, t.id)
	}
	pick, preempt := s.explorer.ChooseAt(point, cur.id, s.exploreIDs)
	if !preempt || n == 0 {
		return
	}
	if pick < 0 || pick >= n {
		pick = n - 1
	}
	// Same repositioning as the kernel-exit perverted policies: the
	// current thread goes to the tail of the lowest priority level, so
	// any pick can run regardless of priorities.
	cur.state = StateReady
	s.ready.Enqueue(cur, sched.MinPrio)
	s.explorePick = pick
	s.explorePickArmed = true
	s.dispatcherFlag = true
	s.trace(EvState, cur, "ready", "explore switch")
}

// exploreLockPoint gives the explorer the post-acquisition switch point.
// Called outside the kernel, right after a successful lock; the squelch
// keeps the artificial kernel section from doubling as its own
// kernel-exit decision point.
func (s *System) exploreLockPoint() {
	s.enterKernel()
	s.exploreAt(PointLock)
	s.exploreSquelch = true
	s.leaveKernel()
}

// NoteRead annotates a read of the named shared location from thread
// context. The annotation is a pure trace event — no virtual cost — and
// feeds the happens-before/lockset race checker of internal/explore.
func (s *System) NoteRead(loc string) {
	s.traceObj(EvAccess, s.current, loc, "read", "")
}

// NoteWrite annotates a write of the named shared location.
func (s *System) NoteWrite(loc string) {
	s.traceObj(EvAccess, s.current, loc, "write", "")
}
