// Package core implements the paper's primary contribution: a true library
// implementation of POSIX 1003.4a (Draft 6) threads, layered on nothing
// but the simulated UNIX kernel of internal/unixkern.
//
// The package provides the library kernel (a monolithic monitor guarded by
// the kernel and dispatcher flags), the dispatcher, preemptive priority
// scheduling with FIFO and round-robin policies, mutexes with the
// no-protocol / priority-inheritance / priority-ceiling(SRP) protocols,
// condition variables, thread-specific data, cleanup handlers, the
// six-rule/seven-rule signal delivery model with fake calls, thread
// cancellation with interruptibility states, sigwait, setjmp/longjmp, and
// the perverted scheduling debug policies.
package core

import "fmt"

// Errno is a POSIX error number as returned by the Pthreads interface.
// The zero value means success; Errno implements error for non-zero
// values.
type Errno int16

// The error numbers the interface can return.
const (
	OK           Errno = 0
	EPERM        Errno = 1
	ESRCH        Errno = 3
	EINTR        Errno = 4
	EBADF        Errno = 9
	EAGAIN       Errno = 11
	ENOMEM       Errno = 12
	EBUSY        Errno = 16
	EINVAL       Errno = 22
	EDEADLK      Errno = 35
	ENOSYS       Errno = 38
	EADDRINUSE   Errno = 48
	ECONNRESET   Errno = 54
	ETIMEDOUT    Errno = 60
	ECONNREFUSED Errno = 61
)

var errnoNames = map[Errno]string{
	OK:           "OK",
	EPERM:        "EPERM",
	ESRCH:        "ESRCH",
	EINTR:        "EINTR",
	EBADF:        "EBADF",
	EAGAIN:       "EAGAIN",
	ENOMEM:       "ENOMEM",
	EBUSY:        "EBUSY",
	EINVAL:       "EINVAL",
	EDEADLK:      "EDEADLK",
	ENOSYS:       "ENOSYS",
	EADDRINUSE:   "EADDRINUSE",
	ECONNRESET:   "ECONNRESET",
	ETIMEDOUT:    "ETIMEDOUT",
	ECONNREFUSED: "ECONNREFUSED",
}

// Error implements error.
func (e Errno) Error() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// Or converts the errno into an error, mapping OK to nil. Library entry
// points return errors through it so callers can use the standard
// `if err != nil` idiom.
func (e Errno) Or() error {
	if e == OK {
		return nil
	}
	return e
}

// AsErrno extracts the Errno from an error produced by this library.
// It reports ok=false for foreign errors.
func AsErrno(err error) (Errno, bool) {
	if err == nil {
		return OK, true
	}
	e, ok := err.(Errno)
	return e, ok
}
