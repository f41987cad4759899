package core

import "pthreads/internal/hw"

// Stack accounting for user code. Threads have fixed-size stacks (set by
// the creation attribute); programs model deep call chains or large
// stack-allocated buffers with UseStack, and exhausting the stack raises
// a synchronous SIGSEGV through the normal delivery model — recipient
// rule 2 directs it at the offending thread, whose handler may recover
// via the redirect hook (the Ada storage-error pattern) or let the
// default action terminate the process.

// Code values carried in the SIGSEGV SigInfo, so handlers can distinguish
// causes of the same synchronous signal (the facility the paper notes the
// Ada runtime depends on).
const (
	// SegvCodeStackOverflow marks a stack-limit fault from UseStack.
	SegvCodeStackOverflow = 1
)

// UseStack runs body with n additional bytes of the calling thread's
// stack in use. If the stack cannot hold them, a synchronous SIGSEGV is
// raised at the current thread and — if the process survives it, which
// requires a handler that redirects control — UseStack is never returned
// from normally. Nesting is allowed; frames release when body returns or
// unwinds.
func (s *System) UseStack(n int64, body func()) {
	if n < 0 {
		panic("core: negative stack use")
	}
	t := s.current
	if err := t.frames().Push(hw.Frame{Kind: hw.FrameUser, Size: n}); err != nil {
		// The fault: the faulting "instruction" cannot continue. The
		// handler must redirect (longjmp) somewhere; returning to the
		// fault would just fault again, so absent a redirect the
		// default action terminates the process.
		s.RaiseSync(sigsegv, SegvCodeStackOverflow)
		s.drainFakeCalls()
		// A handler without a redirect returned here: re-raise as the
		// re-executed faulting access would.
		s.performDefaultActionPublic()
		return
	}
	defer func() {
		// The frame may already be gone if the thread is exiting.
		if t.stack != nil && t.stack.Depth() > 1 && t.stack.Top().Kind == hw.FrameUser {
			t.stack.Pop()
		}
	}()
	body()
}

// StackFree reports the unused bytes of the calling thread's stack.
func (s *System) StackFree() int64 {
	t := s.current
	if t.stack == nil {
		return t.stackSize - hw.BaseFrameSize
	}
	return t.stack.SP
}

// performDefaultActionPublic terminates the process as an unrecovered
// fault would.
func (s *System) performDefaultActionPublic() {
	s.enterKernel()
	s.performDefaultAction(sigsegv)
	// performDefaultAction does not return for fatal signals.
	s.leaveKernel()
}
