package core

import (
	"strconv"

	"pthreads/internal/sched"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvState: a thread changed scheduling state (Arg = new state).
	EvState EventKind = iota
	// EvPrio: a thread's current priority changed (Arg = new priority).
	EvPrio
	// EvMutex: a mutex operation (Op; Arg = "lock"/"unlock"/"block"/
	// "grant"; Mutex, Peer = its owner after the operation).
	EvMutex
	// EvCond: a condition variable operation (Op; Arg = "wait"/
	// "signal"; Cond).
	EvCond
	// EvSignal: a signal was directed at a thread.
	EvSignal
	// EvCancel: a cancellation event.
	EvCancel
	// EvUser: an application-injected marker (Tracepoint).
	EvUser
	// EvAccess: an annotated shared-memory access (NoteRead/NoteWrite;
	// Obj = location, Arg = "read"/"write"). Input to the race checker.
	EvAccess
	// EvFork: a thread created another (Thread = creator, Peer = child,
	// Obj = child's name, Arg = child's decimal ID). A happens-before
	// edge.
	EvFork
	// EvJoin: a thread joined a terminated one (Thread = joiner, Peer =
	// target, Obj = target's name, Arg = target's decimal ID). A
	// happens-before edge.
	EvJoin
	// EvIO: a per-descriptor wait event (FD, Dir; Obj = "fdN/dir",
	// Arg = "block"/"wake"/"eintr"/"timeout").
	EvIO
	// EvNet: a socket lifecycle event from the jacket layer (Obj = the
	// connection name, Arg = "listen"/"connect"/"accept"/"close").
	EvNet

	// The kinds below carry facts only the profiler reads. The trace
	// recorders do not store them, so a recorded trace is the same
	// whatever else listens on the tracer.

	// EvContend: a lock attempt's in-kernel re-test failed and Thread
	// is about to suspend on Mutex (Peer = the owner).
	EvContend
	// EvHandlerEnter and EvHandlerExit bracket a user signal handler
	// that a fake call runs on Thread's stack.
	EvHandlerEnter
	EvHandlerExit
	// EvFDDone: Thread's descriptor wait on (FD, Dir) completed after
	// Wait blocked.
	EvFDDone
	// EvCondEnd: Thread's wait on Cond ended by a timeout, a handler's
	// interruption or a cancellation (a signal ends it at EvCond).
	EvCondEnd
)

var kindNames = [...]string{
	EvState: "state", EvPrio: "prio", EvMutex: "mutex", EvCond: "cond",
	EvSignal: "signal", EvCancel: "cancel", EvUser: "user", EvAccess: "access",
	EvFork: "fork", EvJoin: "join", EvIO: "io", EvNet: "net",
	EvContend: "contend", EvHandlerEnter: "handler-enter", EvHandlerExit: "handler-exit",
	EvFDDone: "fd-done", EvCondEnd: "cond-end",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event"
}

// ProfilerOnly reports whether events of kind k carry a fact only the
// profiler reads; the trace recorders skip them.
func (k EventKind) ProfilerOnly() bool { return k >= EvContend && int(k) < len(kindNames) }

// Op is the operation of an EvMutex or EvCond event. Arg names it in a
// rendered trace; subscribers switch on Op.
type Op uint8

const (
	OpNone Op = iota
	// OpLock: Thread acquired Mutex without suspending.
	OpLock
	// OpRelock: a suspended locker resumes owning the Mutex an OpGrant
	// handed it (Arg "lock").
	OpRelock
	// OpBlock: Thread found Mutex held and suspends (the in-kernel
	// re-test may still take it: EvContend confirms), or spins on an
	// engine mutex.
	OpBlock
	// OpRequeue: a signaled condition waiter queues on the held Mutex
	// (Arg "block").
	OpRequeue
	// OpGrant: the releaser handed Mutex to its suspended waiter Thread.
	OpGrant
	// OpUnlock: Thread released Mutex.
	OpUnlock
	// OpWait: Thread started waiting on Cond.
	OpWait
	// OpSignal: a signal or broadcast took Thread off Cond's queue.
	OpSignal
)

var opArgs = [...]string{
	OpLock: "lock", OpRelock: "lock", OpBlock: "block", OpRequeue: "block",
	OpGrant: "grant", OpUnlock: "unlock", OpWait: "wait", OpSignal: "signal",
}

// TraceEvent is one timestamped scheduling/synchronization event. The
// strings render it for readers; the typed operands (Op, Dir, FD,
// Mutex, Cond, Peer, Wait) are what subscribers select on, set only by
// the kinds whose comments name them.
type TraceEvent struct {
	At     vtime.Time
	Kind   EventKind
	Op     Op
	Dir    FDDir
	FD     unixkern.FD
	Thread *Thread // may be nil for system-wide events
	Arg    string  // primary argument (state name, priority, op)
	Detail string  // free-form context
	Obj    string  // the object involved (mutex/cond name), if any

	Mutex *Mutex
	Cond  *Cond
	Peer  *Thread
	Wait  vtime.Duration
}

// Tracer receives every trace event as it happens, in virtual-time
// order. It is the kernel's one observer hook: the trace recorders, the
// profiler (internal/metrics) and the span plane's fork/join half
// (internal/obs) all implement it, and trace.Tee attaches several.
// Events charge no virtual time, and with no tracer each site costs one
// nil check. Implementations must not call back into the system beyond
// the bare accessors (Thread.State, Mutex.Owner, ...).
type Tracer interface {
	Event(ev TraceEvent)
}

// prioNames interns the decimal rendering of every legal priority, so
// that priority-change trace events cost no formatting or allocation.
// Call sites that would otherwise build arguments eagerly (fmt.Sprintf
// and friends) must also guard on s.tracer != nil: tracing is zero-cost
// when disabled.
var prioNames = func() [sched.NumPrio]string {
	var a [sched.NumPrio]string
	for i := range a {
		a[i] = strconv.Itoa(i + sched.MinPrio)
	}
	return a
}()

// prioName returns the interned decimal string for a priority.
func prioName(p int) string {
	if p >= sched.MinPrio && p <= sched.MaxPrio {
		return prioNames[p-sched.MinPrio]
	}
	return strconv.Itoa(p)
}

// trace emits an event to the configured tracer, if any.
func (s *System) trace(kind EventKind, t *Thread, arg, detail string) {
	if s.tracer != nil {
		s.emit(TraceEvent{Kind: kind, Thread: t, Arg: arg, Detail: detail})
	}
}

// traceObj emits an event naming an object.
func (s *System) traceObj(kind EventKind, t *Thread, obj, arg, detail string) {
	if s.tracer != nil {
		s.emit(TraceEvent{Kind: kind, Thread: t, Obj: obj, Arg: arg, Detail: detail})
	}
}

// emit stamps ev with the virtual time and hands it to the tracer. The
// caller has checked s.tracer.
func (s *System) emit(ev TraceEvent) {
	ev.At = s.clock.Now()
	s.tracer.Event(ev)
}

// traceMutex emits op by t on m, naming m's owner after the operation.
// It inlines to the nil check, which is all an uncontended lock or
// unlock pays for it with no tracer.
func (s *System) traceMutex(op Op, t *Thread, m *Mutex, detail string) {
	if s.tracer != nil {
		s.emitMutex(op, t, m, detail)
	}
}

func (s *System) emitMutex(op Op, t *Thread, m *Mutex, detail string) {
	s.emit(TraceEvent{Kind: EvMutex, Op: op, Thread: t, Obj: m.name, Arg: opArgs[op], Detail: detail, Mutex: m, Peer: m.owner})
}

// traceCond emits op by t on c.
func (s *System) traceCond(op Op, t *Thread, c *Cond) {
	if s.tracer != nil {
		s.emit(TraceEvent{Kind: EvCond, Op: op, Thread: t, Obj: c.name, Arg: opArgs[op], Cond: c})
	}
}

// traceFD emits an EvIO event for t's wait on (fd, dir). The caller
// has checked s.tracer.
func (s *System) traceFD(t *Thread, fd unixkern.FD, dir FDDir, arg, detail string) {
	s.emit(TraceEvent{Kind: EvIO, Thread: t, Obj: s.fdLabel(fd, dir), Arg: arg, Detail: detail, FD: fd, Dir: dir})
}

// Tracepoint lets applications drop a marker into the trace from thread
// context.
func (s *System) Tracepoint(label string) {
	s.trace(EvUser, s.current, label, "")
}

// TraceNet drops a socket lifecycle event (EvNet) into the trace on
// behalf of the jacket layer, which lives outside this package. Callers
// building obj/arg/detail eagerly should guard on Tracing.
func (s *System) TraceNet(obj, arg, detail string) {
	s.traceObj(EvNet, s.current, obj, arg, detail)
}

// Tracing reports whether a tracer is attached, so layered packages can
// keep event formatting zero-cost when tracing is off.
func (s *System) Tracing() bool { return s.tracer != nil }
