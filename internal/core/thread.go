package core

import (
	"fmt"

	"pthreads/internal/hw"
	"pthreads/internal/sched"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// ThreadID identifies a thread within its System. IDs are never reused.
type ThreadID int32

// State is a thread's scheduling state, per the paper's "Thread States"
// section: blocked, ready, running, or terminated — plus New for threads
// whose activation is deferred (lazy creation) and not yet triggered.
type State uint8

const (
	// StateNew: created with deferred activation and not yet activated.
	StateNew State = iota
	// StateReady: eligible to run, waiting in the ready queue.
	StateReady
	// StateRunning: dispatched on the (one) processor.
	StateRunning
	// StateBlocked: waiting for some event.
	StateBlocked
	// StateTerminated: cannot be scheduled any more.
	StateTerminated
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateTerminated:
		return "terminated"
	}
	return "unknown-state"
}

// BlockReason records why a blocked thread is blocked; diagnostics (in
// particular the deadlock report) print it.
type BlockReason uint8

const (
	BlockNone BlockReason = iota
	BlockJoin
	BlockMutex
	BlockCond
	BlockSigwait
	BlockSleep
	BlockIO
	BlockSuspend
	// BlockFD: suspended on a per-descriptor wait queue inside a blocking
	// jacket call (see fdwait.go).
	BlockFD
)

// String names the block reason.
func (b BlockReason) String() string {
	switch b {
	case BlockNone:
		return "none"
	case BlockJoin:
		return "join"
	case BlockMutex:
		return "mutex"
	case BlockCond:
		return "cond"
	case BlockSigwait:
		return "sigwait"
	case BlockSleep:
		return "sleep"
	case BlockIO:
		return "io"
	case BlockSuspend:
		return "suspend"
	case BlockFD:
		return "fd"
	}
	return "unknown-block"
}

// Policy is a scheduling policy.
type Policy uint8

const (
	// SchedFIFO is preemptive priority scheduling, first-in first-out
	// within a priority level; a thread runs until it blocks, yields, or
	// is preempted by a higher-priority thread.
	SchedFIFO Policy = iota
	// SchedRR adds time slicing within a priority level.
	SchedRR
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SchedFIFO:
		return "SCHED_FIFO"
	case SchedRR:
		return "SCHED_RR"
	}
	return "unknown-policy"
}

// CancelState is the interruptibility state of Table 1.
type CancelState uint8

const (
	// CancelControlled: cancellation enabled, acted upon at interruption
	// points (the default).
	CancelControlled CancelState = iota
	// CancelDisabled: SIGCANCEL pends on the thread until enabled.
	CancelDisabled
	// CancelAsynchronous: cancellation acted upon immediately.
	CancelAsynchronous
)

// String names the interruptibility state.
func (c CancelState) String() string {
	switch c {
	case CancelControlled:
		return "enabled/controlled"
	case CancelDisabled:
		return "disabled"
	case CancelAsynchronous:
		return "enabled/asynchronous"
	}
	return "unknown-cancelstate"
}

// Attr is a thread creation attribute object (pthread_attr_t).
type Attr struct {
	// Priority in [sched.MinPrio, sched.MaxPrio]; higher is more urgent.
	Priority int
	// Policy is SCHED_FIFO or SCHED_RR.
	Policy Policy
	// InheritSched, when true, takes priority and policy from the
	// creating thread instead of this attribute object.
	InheritSched bool
	// StackSize in bytes; 0 means the system default.
	StackSize int64
	// Detached creates the thread already detached: its resources are
	// reclaimed at termination and it cannot be joined.
	Detached bool
	// Lazy defers activation: the thread is created in StateNew and only
	// becomes ready when first needed (a join, a kill, or an explicit
	// Activate). This is the paper's lazy thread creation extension.
	Lazy bool
	// Name labels the thread in traces and diagnostics.
	Name string
}

// DefaultAttr returns the default attribute object: default priority,
// FIFO policy, default stack, joinable, eager activation.
func DefaultAttr() Attr {
	return Attr{Priority: sched.DefaultPrio, Policy: SchedFIFO, StackSize: hw.DefaultStackSize}
}

// cleanupRec is one pushed cleanup handler.
type cleanupRec struct {
	fn  func(arg any)
	arg any
}

// fakeFrame is a pending fake call: a frame conceptually pushed onto the
// thread's stack that will run when the thread is next dispatched.
type fakeFrame struct {
	kind fakeKind
	// For user signal handlers:
	sig     unixkern.Signal
	info    *unixkern.SigInfo
	handler SigHandler
	mask    unixkern.Sigset // sigaction mask to hold while the handler runs
	// reacquire, when non-nil, is the mutex of a condition wait this
	// fake call interrupted; the wrapper reacquires it and terminates
	// the wait before calling the handler.
	reacquire *Mutex
}

type fakeKind int

const (
	fakeHandler fakeKind = iota
	fakeCancel
)

// Thread is a thread control block (TCB). All fields are owned by the
// library kernel; user code holds *Thread purely as a handle.
//
// A parked thread is mostly its TCB, so the TCB is kept small: the
// scheduling state is packed into bytes, a wait is described by a verb
// and the object it names (the label is rendered only where a string is
// read), and the state that a parked thread never touches lives in a
// record allocated on first use (threadCold).
type Thread struct {
	sys  *System
	name string
	id   ThreadID

	// allIdx is the thread's slot in the System.all roster (tombstone
	// removal; see addThread/dropThread).
	allIdx int32

	// Descriptor wait (BlockFD): the descriptor whose wait list the
	// thread sits on; verb names the direction.
	waitFD unixkern.FD

	errno Errno

	state State
	// verb is what a blocked thread is doing; the block reason derives
	// from it (see waitVerb).
	verb waitVerb
	// wake records why the last blocking wait ended.
	wake        wakeCause
	policy      Policy
	cancelState CancelState

	basePrio int8 // the priority assigned by the program
	prio     int8 // current priority, including protocol boosts
	// qLevel is the level the thread was queued at on its wait list.
	qLevel int8

	detached      bool
	cancelPending bool
	// pooled marks TCBs drawn from (and returned to) the creation pool.
	pooled bool
	// dead marks a TCB whose memory has been reclaimed; any use is a
	// reference to a destroyed thread.
	dead bool
	// contFirst and contParked are a continuation thread's dispatch
	// state: its next dispatch is its first (no kernel-exit tail owed),
	// and it is parked without a runner.
	contFirst, contParked bool

	// Execution context (runner.go): no thread owns a goroutine. A
	// thread binds a pooled runner at its first dispatch and parks on
	// the runner's channel whenever it blocks inline. A Create thread
	// keeps its runner until it exits; a continuation thread (cont !=
	// nil) releases it at every declared park and binds one again at
	// wakeup.
	cont   *Cont
	runner *runner

	// Simulated stack. A pooled TCB comes with its stack; any other
	// thread gets one at its first push past the base frame (an
	// interrupt frame, a fake call, UseStack), so stackSize records the
	// requested size until then (see frames).
	stack     *hw.Stack
	stackSize int64

	fn     func(arg any) any
	arg    any
	retval any

	joiners    waitList // threads blocked joining this one, at joinLevel
	joinTarget *Thread  // the thread this one is blocked joining

	// Signal state.
	sigMask unixkern.Sigset
	// pending is the thread-pended signal table, allocated the first
	// time a signal pends on the thread (most threads never have one)
	// and dropped at reclaim; read and write it through pendingSig and
	// setPending.
	pending *[unixkern.NSIGAll]*unixkern.SigInfo

	// cold holds the state a parked thread never touches, allocated on
	// first use and dropped at reclaim (see threadCold).
	cold *threadCold

	// Synchronization bookkeeping. owned heads the list of mutexes the
	// thread holds, threaded through Mutex.ownedNext, most recent first
	// (for inheritance recomputation).
	owned        *Mutex
	waitingMutex *Mutex
	waitingCond  *Cond

	// Sleep / timed wait.
	waitTimer vtime.TimerID

	// Wait-list links: the thread's place in the one wait list it is
	// blocked on, whatever the object (see waitlist.go); qLevel above is
	// the level it was queued at.
	qPrev, qNext *Thread

	// Per-thread stats.
	Dispatches int64
	SigsTaken  int64
	// userNS accumulates modelled user computation (Compute); the RR
	// quantum measures it, ITIMER_VIRTUAL-style.
	userNS int64
}

// threadCold is the part of a TCB that a parked thread never touches:
// pending fake calls, the sigwait state, cleanup handlers,
// thread-specific data, the SRP ceiling stack, the asynchronous I/O
// request, and the operands of the rare waits' labels. Most threads
// never need any of it. It is allocated the first time a thread does
// (coldState) and dropped at reclaim, like the pending-signal table, so
// a reissued TCB never carries a dead thread's handlers or data.
type threadCold struct {
	fakeStack []*fakeFrame
	cleanup   []cleanupRec
	tsd       []any
	ceilStack []int // SRP: saved priorities, one per held ceiling mutex

	inSigwait  bool
	sigwaitSet unixkern.Sigset
	sigwaitGot unixkern.Signal

	aioID unixkern.AioID
	// device is a device transfer's device, for its wait label.
	device *unixkern.Device
	// sleepFor is the duration of the last sleep, recorded only with a
	// tracer attached: a traced sleep's label carries it ("sleep 5ms"),
	// an untraced one does not ("sleep").
	sleepFor vtime.Duration
}

// coldState returns the thread's cold record, allocating it on first
// use. Readers that may run before any use check t.cold for nil instead.
func (t *Thread) coldState() *threadCold {
	if t.cold == nil {
		t.cold = new(threadCold)
	}
	return t.cold
}

// fakeCalls counts the thread's pending fake calls.
func (t *Thread) fakeCalls() int {
	if t.cold == nil {
		return 0
	}
	return len(t.cold.fakeStack)
}

// sigwaitsFor reports whether the thread waits in sigwait for sig.
func (t *Thread) sigwaitsFor(sig unixkern.Signal) bool {
	c := t.cold
	return c != nil && c.inSigwait && c.sigwaitSet.Has(sig)
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string { return t.name }

// State returns the current scheduling state. Like the rest of the
// handle-inspection API it is meaningful only from inside the system (from
// thread code or between Run steps); it exists for tests and diagnostics.
func (t *Thread) State() State { return t.state }

// Priority returns the thread's current (possibly boosted) priority.
func (t *Thread) Priority() int { return int(t.prio) }

// BasePriority returns the thread's assigned priority, ignoring boosts.
func (t *Thread) BasePriority() int { return int(t.basePrio) }

// Detached reports whether the thread is detached.
func (t *Thread) Detached() bool { return t.detached }

// String renders a compact description for traces and deadlock reports.
func (t *Thread) String() string {
	if t == nil {
		return "thread(nil)"
	}
	if t.name != "" {
		return fmt.Sprintf("%s(#%d)", t.name, t.id)
	}
	return fmt.Sprintf("thread#%d", t.id)
}
