// Package unixkern simulates the slice of UNIX (SunOS 4.1 / 4.3 BSD) that
// the paper's library implementation depends on: processes, signals with
// per-process masks and handlers, sigsetmask/sigvec/kill/getpid system
// calls with realistic kernel-crossing costs, interval timers, and
// asynchronous I/O completion.
//
// The paper's point is that a true library implementation touches the
// operating system through a very narrow, mostly non-time-critical
// interface (~20 services). This package is that interface; everything
// above it is the library itself.
package unixkern

import "fmt"

// Signal is a UNIX signal number. Numbering follows 4.3 BSD. Signal 32 is
// SIGCANCEL, the internal signal the library uses for thread cancellation;
// it is not a real UNIX signal and cannot be sent between processes.
type Signal int

// 4.3 BSD signal numbers.
const (
	SIGNONE   Signal = 0 // not a signal
	SIGHUP    Signal = 1
	SIGINT    Signal = 2
	SIGQUIT   Signal = 3
	SIGILL    Signal = 4
	SIGTRAP   Signal = 5
	SIGABRT   Signal = 6
	SIGEMT    Signal = 7
	SIGFPE    Signal = 8
	SIGKILL   Signal = 9
	SIGBUS    Signal = 10
	SIGSEGV   Signal = 11
	SIGSYS    Signal = 12
	SIGPIPE   Signal = 13
	SIGALRM   Signal = 14
	SIGTERM   Signal = 15
	SIGURG    Signal = 16
	SIGSTOP   Signal = 17
	SIGTSTP   Signal = 18
	SIGCONT   Signal = 19
	SIGCHLD   Signal = 20
	SIGTTIN   Signal = 21
	SIGTTOU   Signal = 22
	SIGIO     Signal = 23
	SIGXCPU   Signal = 24
	SIGXFSZ   Signal = 25
	SIGVTALRM Signal = 26
	SIGPROF   Signal = 27
	SIGWINCH  Signal = 28
	SIGINFO   Signal = 29
	SIGUSR1   Signal = 30
	SIGUSR2   Signal = 31

	// SIGCANCEL is the library-internal cancellation signal.
	SIGCANCEL Signal = 32

	// NSIG is the number of real UNIX signals (1..NSIG-1).
	NSIG = 32
	// NSIGAll includes the internal SIGCANCEL slot.
	NSIGAll = 33
)

var signames = [NSIGAll]string{
	"SIG0", "SIGHUP", "SIGINT", "SIGQUIT", "SIGILL", "SIGTRAP", "SIGABRT",
	"SIGEMT", "SIGFPE", "SIGKILL", "SIGBUS", "SIGSEGV", "SIGSYS", "SIGPIPE",
	"SIGALRM", "SIGTERM", "SIGURG", "SIGSTOP", "SIGTSTP", "SIGCONT",
	"SIGCHLD", "SIGTTIN", "SIGTTOU", "SIGIO", "SIGXCPU", "SIGXFSZ",
	"SIGVTALRM", "SIGPROF", "SIGWINCH", "SIGINFO", "SIGUSR1", "SIGUSR2",
	"SIGCANCEL",
}

// String names the signal.
func (s Signal) String() string {
	if s > 0 && int(s) < NSIGAll {
		return signames[s]
	}
	return fmt.Sprintf("SIG#%d", int(s))
}

// Valid reports whether s is a real, sendable UNIX signal.
func (s Signal) Valid() bool { return s >= SIGHUP && s < SIGCANCEL }

// Maskable reports whether the signal may be blocked. SIGKILL and SIGSTOP
// cannot be caught or blocked.
func (s Signal) Maskable() bool { return s.Valid() && s != SIGKILL && s != SIGSTOP }

// Synchronous reports whether the signal is of the class caused
// synchronously by the executing instruction stream (used by recipient
// rule 2 of the signal delivery model).
func (s Signal) Synchronous() bool {
	switch s {
	case SIGILL, SIGTRAP, SIGABRT, SIGEMT, SIGFPE, SIGBUS, SIGSEGV, SIGSYS, SIGPIPE:
		return true
	}
	return false
}

// Sigset is a set of signals, bit i for signal i. It covers the internal
// SIGCANCEL bit as well.
type Sigset uint64

// MakeSigset builds a set from a list of signals.
func MakeSigset(sigs ...Signal) Sigset {
	var s Sigset
	for _, sig := range sigs {
		s = s.Add(sig)
	}
	return s
}

// fullSigset is every signal bit from SIGHUP through SIGCANCEL, minus
// SIGKILL and SIGSTOP.
const fullSigset Sigset = (1<<NSIGAll - 2) &^ (1<<SIGKILL | 1<<SIGSTOP)

// FullSigset is the set of every maskable signal (SIGKILL and SIGSTOP are
// excluded, as sigsetmask would).
func FullSigset() Sigset { return fullSigset }

// Add returns the set with sig included.
func (s Sigset) Add(sig Signal) Sigset { return s | 1<<uint(sig) }

// Del returns the set with sig removed.
func (s Sigset) Del(sig Signal) Sigset { return s &^ (1 << uint(sig)) }

// Has reports whether sig is in the set.
func (s Sigset) Has(sig Signal) bool { return s&(1<<uint(sig)) != 0 }

// Union returns the union of two sets.
func (s Sigset) Union(o Sigset) Sigset { return s | o }

// Minus returns the signals in s that are not in o.
func (s Sigset) Minus(o Sigset) Sigset { return s &^ o }

// Empty reports whether the set holds no signals.
func (s Sigset) Empty() bool { return s == 0 }

// Signals lists the members in ascending numeric order.
func (s Sigset) Signals() []Signal {
	var out []Signal
	for sig := Signal(1); sig < NSIGAll; sig++ {
		if s.Has(sig) {
			out = append(out, sig)
		}
	}
	return out
}

// String renders the set like "{SIGINT,SIGALRM}".
func (s Sigset) String() string {
	out := "{"
	for i, sig := range s.Signals() {
		if i > 0 {
			out += ","
		}
		out += sig.String()
	}
	return out + "}"
}

// Cause records why a signal was generated; the library's signal delivery
// model dispatches on it (recipient rules 2–4).
type Cause int

const (
	// CauseKill is an explicit kill()/raise.
	CauseKill Cause = iota
	// CauseSync is a synchronous fault raised by the executing thread
	// (SIGSEGV from a stack overflow, SIGFPE, ...).
	CauseSync
	// CauseTimer is an interval-timer or alarm expiration.
	CauseTimer
	// CauseIO is an asynchronous I/O completion.
	CauseIO
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseKill:
		return "kill"
	case CauseSync:
		return "sync"
	case CauseTimer:
		return "timer"
	case CauseIO:
		return "io"
	}
	return "unknown-cause"
}

// SigInfo carries a generated signal and its provenance to the handler —
// the information the library's delivery model needs to pick a recipient
// thread.
type SigInfo struct {
	Sig    Signal
	Code   int // signal-specific code (the Ada runtime distinguishes causes of the same synchronous signal by it)
	Cause  Cause
	Sender Pid

	// Datum identifies the entity the event belongs to: the value the
	// library registered when arming a timer or issuing an I/O request
	// (in practice a *core.Thread), mirroring the user-provided datum of
	// the Marsh/Scott kernel interface the paper cites.
	Datum any

	// TimeSlice marks a timer expiration that was armed for time-sliced
	// scheduling (action rule 2 treats it specially).
	TimeSlice bool

	// pooled marks a SigInfo minted from the kernel free list; only those
	// may be reclaimed by RecycleSigInfo. Hand-built SigInfos (Kill,
	// faults, tests) are never pooled and recycling them is a no-op.
	pooled bool
}
