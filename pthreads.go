// Package pthreads is a library implementation of POSIX 1003.4a (Draft 6)
// threads, reproducing Mueller's USENIX 1993 paper "A Library
// Implementation of POSIX Threads under UNIX" as a deterministic
// simulation in pure Go.
//
// The library implements user-level threads with no kernel thread
// support: a monolithic-monitor library kernel, a priority dispatcher,
// preemptive SCHED_FIFO and time-sliced SCHED_RR scheduling, mutexes with
// the priority-inheritance and priority-ceiling (SRP) protocols,
// condition variables, counting semaphores, thread-specific data, cleanup
// handlers, a full per-thread signal model (universal handler, recipient
// and action rules, fake calls, sigwait), cancellation with
// interruptibility states, setjmp/longjmp, and the paper's "perverted
// scheduling" debug policies.
//
// Because the Go runtime owns real machine context switching and signal
// delivery, the library runs its threads on a simulated uniprocessor:
// a running or inline-blocked thread borrows a goroutine from a pool of
// runners (the analogue of the paper's pre-allocated stacks), a strict
// baton-passing discipline keeps exactly one runnable at any instant,
// and a virtual clock with a SPARC-calibrated cost model accounts the
// latency of every operation.
// Programs model their computation with Compute and their I/O with Sleep
// and AioRead; everything else — scheduling, synchronization, signals —
// behaves and costs as it did in the paper's implementation.
//
// # Quick start
//
//	sys := pthreads.New(pthreads.Config{})
//	err := sys.Run(func() {
//		attr := pthreads.DefaultAttr()
//		attr.Name = "worker"
//		t, _ := sys.Create(attr, func(arg any) any {
//			sys.Compute(5 * pthreads.Millisecond)
//			return arg.(int) * 2
//		}, 21)
//		v, _ := sys.Join(t)
//		fmt.Println(v) // 42
//	})
//
// Each System is an independent simulated process; tests and benchmarks
// can run many concurrently.
package pthreads

import (
	"pthreads/internal/core"
	"pthreads/internal/hw"
	ptio "pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/sched"
	"pthreads/internal/sem"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Core types, re-exported.
type (
	// System is one instance of the thread library: one simulated
	// process on one simulated uniprocessor.
	System = core.System
	// Config parameterizes a System.
	Config = core.Config
	// Thread is a thread handle (pthread_t).
	Thread = core.Thread
	// Attr is a thread creation attribute object (pthread_attr_t).
	Attr = core.Attr
	// Mutex is a POSIX mutex (pthread_mutex_t).
	Mutex = core.Mutex
	// MutexAttr configures a mutex (pthread_mutexattr_t).
	MutexAttr = core.MutexAttr
	// Cond is a condition variable (pthread_cond_t).
	Cond = core.Cond
	// Semaphore is a counting semaphore built on Mutex and Cond.
	Semaphore = sem.Semaphore
	// OnceControl is a pthread_once_t control block.
	OnceControl = core.OnceControl
	// Key is a thread-specific data key (pthread_key_t).
	Key = core.Key
	// JmpBuf is a jump buffer (jmp_buf).
	JmpBuf = core.JmpBuf
	// Device is a simulated FIFO-serviced I/O device.
	Device = core.Device
	// ThreadInfo is a debugger-style TCB snapshot.
	ThreadInfo = core.ThreadInfo
	// SigContext is passed to signal handlers; it carries the redirect
	// hook.
	SigContext = core.SigContext
	// SigHandler is a user signal handler run via a fake call.
	SigHandler = core.SigHandler
	// Errno is a POSIX error number.
	Errno = core.Errno
	// Stats aggregates library counters.
	Stats = core.Stats
	// Policy is a scheduling policy.
	Policy = core.Policy
	// Protocol is a mutex priority protocol.
	Protocol = core.Protocol
	// CancelState is a cancellation interruptibility state.
	CancelState = core.CancelState
	// PervertPolicy is a perverted-scheduling debug policy.
	PervertPolicy = core.PervertPolicy
	// MixMode selects the mixed-protocol unlock behaviour (Table 4).
	MixMode = core.MixMode
	// State is a thread scheduling state.
	State = core.State
	// TraceEvent is one timestamped scheduling event.
	TraceEvent = core.TraceEvent
	// Tracer receives trace events. It is the one observer hook: a
	// trace recorder, the profiler (internal/metrics.Collector) and the
	// span plane's fork/join half (internal/obs.Recorder) all attach
	// through Config.Tracer.
	Tracer = core.Tracer
	// EventKind classifies trace events.
	EventKind = core.EventKind
	// Explorer receives forced-switch decision points during schedule
	// exploration (record/replay, PCT, bounded search).
	Explorer = core.Explorer
	// SwitchPoint classifies where an Explorer decision is taken.
	SwitchPoint = core.SwitchPoint
	// Cont is a continuation thread's resume descriptor: the handle a
	// parked-continuation thread's steps receive (see CreateCont).
	Cont = core.Cont
	// ContFunc is one step of a continuation thread.
	ContFunc = core.ContFunc

	// IO is the blocking-I/O jacket layer bound to a System: sockets
	// and device files with per-thread blocking semantics built on
	// per-fd wait queues.
	IO = ptio.IO
	// Listener is a listening socket with a bounded accept backlog.
	Listener = ptio.Listener
	// Conn is one endpoint of an established connection.
	Conn = ptio.Conn
	// File is a blocking jacket over a simulated device file.
	File = ptio.File
	// NetConfig parameterizes the simulated socket stack.
	NetConfig = net.Config
	// NetStats counts socket-layer traffic.
	NetStats = net.Stats
	// FD is a file descriptor in the simulated process.
	FD = unixkern.FD

	// Signal is a UNIX signal number.
	Signal = unixkern.Signal
	// Sigset is a set of signals.
	Sigset = unixkern.Sigset
	// SigInfo carries a signal and its provenance.
	SigInfo = unixkern.SigInfo

	// Time is an absolute virtual timestamp.
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration

	// CostModel is a machine cost model.
	CostModel = hw.CostModel
	// LockPrimitive selects a mutex's atomic lock path.
	LockPrimitive = hw.LockPrimitive
)

// New creates a thread system. The zero Config selects the SPARCstation
// IPX cost model, SCHED_FIFO, a 10ms RR quantum, and an 8-entry TCB pool.
func New(cfg Config) *System { return core.New(cfg) }

// DefaultAttr returns the default thread attributes.
func DefaultAttr() Attr { return core.DefaultAttr() }

// NewSemaphore creates a counting semaphore on a system.
func NewSemaphore(s *System, name string, initial int) (*Semaphore, error) {
	return sem.New(s, name, initial)
}

// Scheduling policies.
const (
	SchedFIFO = core.SchedFIFO
	SchedRR   = core.SchedRR
)

// Mutex protocols.
const (
	ProtocolNone    = core.ProtocolNone
	ProtocolInherit = core.ProtocolInherit
	ProtocolCeiling = core.ProtocolCeiling
)

// Cancellation interruptibility states (Table 1).
const (
	CancelControlled   = core.CancelControlled
	CancelDisabled     = core.CancelDisabled
	CancelAsynchronous = core.CancelAsynchronous
)

// Perverted scheduling policies.
const (
	PervertNone        = core.PervertNone
	PervertMutexSwitch = core.PervertMutexSwitch
	PervertRROrdered   = core.PervertRROrdered
	PervertRandom      = core.PervertRandom
)

// Mixed-protocol unlock modes (Table 4).
const (
	MixStack        = core.MixStack
	MixLinearSearch = core.MixLinearSearch
)

// Explorer switch points.
const (
	PointKernelExit = core.PointKernelExit
	PointLock       = core.PointLock
)

// Priority range.
const (
	MinPrio     = sched.MinPrio
	MaxPrio     = sched.MaxPrio
	DefaultPrio = sched.DefaultPrio
)

// Error numbers.
const (
	OK           = core.OK
	EPERM        = core.EPERM
	ESRCH        = core.ESRCH
	EINTR        = core.EINTR
	EBADF        = core.EBADF
	EAGAIN       = core.EAGAIN
	ENOMEM       = core.ENOMEM
	EBUSY        = core.EBUSY
	EINVAL       = core.EINVAL
	EDEADLK      = core.EDEADLK
	ENOSYS       = core.ENOSYS
	EADDRINUSE   = core.EADDRINUSE
	ECONNRESET   = core.ECONNRESET
	ETIMEDOUT    = core.ETIMEDOUT
	ECONNREFUSED = core.ECONNREFUSED
)

// Virtual time units.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// Commonly used signals, re-exported for convenience; the full set lives
// in the unixkern package's constants.
const (
	SIGHUP    = unixkern.SIGHUP
	SIGINT    = unixkern.SIGINT
	SIGQUIT   = unixkern.SIGQUIT
	SIGILL    = unixkern.SIGILL
	SIGABRT   = unixkern.SIGABRT
	SIGFPE    = unixkern.SIGFPE
	SIGKILL   = unixkern.SIGKILL
	SIGBUS    = unixkern.SIGBUS
	SIGSEGV   = unixkern.SIGSEGV
	SIGPIPE   = unixkern.SIGPIPE
	SIGALRM   = unixkern.SIGALRM
	SIGTERM   = unixkern.SIGTERM
	SIGIO     = unixkern.SIGIO
	SIGVTALRM = unixkern.SIGVTALRM
	SIGUSR1   = unixkern.SIGUSR1
	SIGUSR2   = unixkern.SIGUSR2
)

// Machine presets of the paper's evaluation.
var (
	// SPARCstation1Plus is the 25 MHz machine of Table 2's first
	// columns.
	SPARCstation1Plus = hw.SPARCstation1Plus
	// SPARCstationIPX is the 40 MHz machine of Table 2's later columns.
	SPARCstationIPX = hw.SPARCstationIPX
)

// Lock primitives for the Figure 4 ablation.
const (
	TASOnly        = hw.TASOnly
	TASWithRAS     = hw.TASWithRAS
	CompareAndSwap = hw.CompareAndSwap
)

// Canceled is the exit status of a cancelled thread (PTHREAD_CANCELED).
var Canceled = core.Canceled

// EOF is the clean end-of-stream condition a Conn.Read reports after the
// peer's orderly close (read(2) returning 0).
var EOF = ptio.EOF

// NewIO binds a blocking-I/O jacket layer (sockets and device files)
// over a fresh simulated socket stack to a system. Call it inside
// sys.Run, or before starting threads.
func NewIO(sys *System, cfg NetConfig) *IO { return ptio.New(sys, cfg) }

// MakeSigset builds a signal set from a list of signals.
func MakeSigset(sigs ...Signal) Sigset { return unixkern.MakeSigset(sigs...) }

// FullSigset is the set of every maskable signal.
func FullSigset() Sigset { return unixkern.FullSigset() }
