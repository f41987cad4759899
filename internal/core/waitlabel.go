package core

import (
	"fmt"
	"strconv"

	"pthreads/internal/unixkern"
)

// A blocked thread's wait is described by a verb and the object it
// names: the mutex, condition variable or thread the TCB already points
// at, or the object behind the descriptor it waits on. The label a
// reader sees ("mutex m", "join worker(#4)", "read sock5->srv") is
// rendered only where a string is read — trace events (with a tracer
// attached), BlockedReport, and Inspect/DumpThreads — so blocking builds
// no string and the TCB holds one byte for it.

// waitVerb is what a blocked (or not yet activated) thread is doing. The
// descriptor verbs follow verbFD in FDVerb order.
type waitVerb uint8

const (
	verbNone       waitVerb = iota
	verbActivation          // a lazily created thread awaiting activation
	verbMutex               // "mutex <name>"
	verbCond                // "cond <name>"
	verbJoin                // "join <thread>"
	verbSleep               // "sleep", or "sleep <d>" when traced
	verbSigwait             // "sigwait <set>"
	verbAio                 // "aio read"
	verbDevice              // "device <name>"
	verbOnce                // "once"
	verbFD                  // verbFD + v: descriptor verb v
)

// FDVerb is what a jacket call does while it waits on a descriptor. The
// wait's label is the verb and the name of the object behind the
// descriptor ("read sock5->srv", "accept srv"), and the verb fixes the
// direction of the wait.
type FDVerb uint8

const (
	// VerbRead: "read <name>", waiting for readability.
	VerbRead FDVerb = iota
	// VerbWrite: "write <name>", waiting for writability.
	VerbWrite
	// VerbAccept: "accept <addr>", a listener waiting for a connection.
	VerbAccept
	// VerbConnect: "connect <addr>", a socket waiting for its handshake.
	VerbConnect
	// VerbFileRead: "file read <name>", a device file read.
	VerbFileRead
)

var fdVerbNames = [...]string{
	VerbRead:     "read",
	VerbWrite:    "write",
	VerbAccept:   "accept",
	VerbConnect:  "connect",
	VerbFileRead: "file read",
}

// Dir is the direction of the descriptor wait the verb performs.
func (v FDVerb) Dir() FDDir {
	if v == VerbWrite || v == VerbConnect {
		return FDWrite
	}
	return FDRead
}

// reason is the block reason of a wait with this verb.
func (v waitVerb) reason() BlockReason {
	switch v {
	case verbMutex:
		return BlockMutex
	case verbCond:
		return BlockCond
	case verbJoin:
		return BlockJoin
	case verbSleep:
		return BlockSleep
	case verbSigwait:
		return BlockSigwait
	case verbAio, verbDevice:
		return BlockIO
	case verbOnce:
		return BlockSuspend
	case verbNone, verbActivation:
		return BlockNone
	}
	return BlockFD
}

// BlockReason is why the thread is blocked (BlockNone unless it is).
// Bare accessor (see introspect.go).
func (t *Thread) BlockReason() BlockReason { return t.verb.reason() }

// Lazy reports whether t was created lazily and still awaits its
// activation. Bare accessor.
func (t *Thread) Lazy() bool { return t.verb == verbActivation }

// fdVerb is the descriptor verb of a thread in a descriptor wait.
func (t *Thread) fdVerb() FDVerb { return FDVerb(t.verb - verbFD) }

// FDWait reports the descriptor and verb of a thread blocked in a
// jacket call's descriptor wait; ok is false for any other thread. Bare
// accessor (see introspect.go).
func (t *Thread) FDWait() (fd unixkern.FD, verb FDVerb, ok bool) {
	if t.state != StateBlocked || t.verb < verbFD {
		return 0, 0, false
	}
	return t.waitFD, t.fdVerb(), true
}

// waitLabel renders what a blocked or not yet activated thread waits
// for; "" for any other thread.
func (s *System) waitLabel(t *Thread) string {
	switch t.verb {
	case verbNone:
		return ""
	case verbActivation:
		return "activation"
	case verbMutex:
		return "mutex " + t.waitingMutex.name
	case verbCond:
		return "cond " + t.waitingCond.name
	case verbJoin:
		return "join " + t.joinTarget.String()
	case verbSleep:
		if c := t.cold; c != nil && c.sleepFor > 0 {
			return fmt.Sprintf("sleep %v", c.sleepFor)
		}
		return "sleep"
	case verbSigwait:
		return "sigwait " + t.cold.sigwaitSet.String()
	case verbAio:
		return "aio read"
	case verbDevice:
		return "device " + t.cold.device.Name
	case verbOnce:
		return "once"
	}
	return s.fdWaitLabel(t.waitFD, t.fdVerb())
}

// fdWaitLabel renders a descriptor wait's label from the object the
// descriptor table holds: its address for accept and connect, its name
// otherwise. An object that has neither is named by its descriptor. A
// descriptor stays open while a thread waits on it, because closing one
// wakes its waiters (FDKickAll); only the "eintr" trace of a call whose
// descriptor another thread closed after the interrupt reads the table
// after the wait.
func (s *System) fdWaitLabel(fd unixkern.FD, v FDVerb) string {
	obj, _ := s.proc.FDObject(fd)
	var name string
	if v == VerbAccept || v == VerbConnect {
		if a, ok := obj.(interface{ Addr() string }); ok {
			name = a.Addr()
		}
	} else if n, ok := obj.(interface{ Name() string }); ok {
		name = n.Name()
	}
	if name == "" {
		name = "fd" + strconv.Itoa(int(fd))
	}
	return fdVerbNames[v] + " " + name
}
