package unixkern

import "fmt"

// Syscall numbers the simulated system calls. The kernel counts calls by
// number in Kernel.SyscallCounts, so recording one costs an array
// increment, not a hash of its name.
type Syscall uint8

// The system calls the library and its socket layer make.
const (
	SysGetpid Syscall = iota
	SysSigsetmask
	SysSigblock
	SysSigvec
	SysKill
	SysSetitimer
	SysAioread
	SysSocket
	SysListen
	SysConnect
	SysAccept
	SysRecv
	SysSend
	SysClose

	// NumSyscalls is the number of system calls, the length of
	// Kernel.SyscallCounts.
	NumSyscalls
)

var syscallNames = [NumSyscalls]string{
	"getpid", "sigsetmask", "sigblock", "sigvec", "kill", "setitimer",
	"aioread", "socket", "listen", "connect", "accept", "recv", "send",
	"close",
}

// String names the system call as UNIX does.
func (sc Syscall) String() string {
	if sc < NumSyscalls {
		return syscallNames[sc]
	}
	return fmt.Sprintf("syscall#%d", int(sc))
}
