package hw

import "fmt"

// Stack models a thread's stack. The library does not execute machine code
// from it, but it accounts for every frame conceptually pushed — ordinary
// call frames are subsumed into instruction costs, while the frames the
// paper cares about are modelled explicitly: the UNIX interrupt frame the
// kernel pushes when a signal is delivered, and the wrapper frames pushed
// by fake calls. Exhausting the stack raises a (simulated) synchronous
// SIGSEGV, and the no-unlimited-stack-growth property of the paper's
// signal design is checked against this model by the test suite.

// FrameKind classifies a modelled stack frame.
type FrameKind int

const (
	// FrameBase is the initial frame a thread starts with.
	FrameBase FrameKind = iota
	// FrameInterrupt is the UNIX interrupt frame saving the state at the
	// interruption point (pushed by the simulated kernel when the
	// universal signal handler is invoked over a thread).
	FrameInterrupt
	// FrameFakeCall is a wrapper frame installed by the fake-call
	// mechanism to run a user signal handler at thread priority.
	FrameFakeCall
	// FrameUser models explicit stack consumption by user code (deep
	// call chains, large locals) declared through the library's
	// UseStack.
	FrameUser
)

// String names the frame kind.
func (k FrameKind) String() string {
	switch k {
	case FrameBase:
		return "base"
	case FrameInterrupt:
		return "interrupt"
	case FrameFakeCall:
		return "fake-call"
	case FrameUser:
		return "user"
	}
	return "unknown-frame"
}

// Frame is one modelled stack frame.
type Frame struct {
	Kind FrameKind
	Size int64
}

// Sizes of the modelled frames, in bytes. An interrupt frame on SunOS 4.x
// holds the full register and FPU state; a fake-call wrapper is a minimum
// SPARC frame plus the saved mask, errno and handler arguments.
const (
	InterruptFrameSize = 512
	FakeCallFrameSize  = 160
	BaseFrameSize      = 96

	// DefaultStackSize is the stack given to threads whose attributes do
	// not specify one.
	DefaultStackSize = 64 * 1024

	// MinStackSize is the smallest stack a thread attribute may request:
	// room for the base frame, one interrupt frame, and one fake call.
	MinStackSize = 1024
)

// ErrStackOverflow is returned when a frame push exceeds the stack.
type ErrStackOverflow struct {
	Size, SP, Need int64
}

func (e *ErrStackOverflow) Error() string {
	return fmt.Sprintf("stack overflow: %d bytes needed, %d free of %d", e.Need, e.SP, e.Size)
}

// Stack is the frame model. SP counts down from Size toward zero, like the
// real machine.
type Stack struct {
	Size   int64
	SP     int64
	frames []Frame

	// HighWater is the maximum depth observed (Size - min SP), kept for
	// the harness's resource reports.
	HighWater int64

	// base backs frames until a third frame is pushed: the base frame
	// and the first interrupt frame (or fake call) fit in the stack's own
	// storage, so a stack is one allocation and the first signal
	// delivered over its thread does not grow it.
	base [2]Frame
}

// NewStack returns a stack of the given size with the base frame pushed.
func NewStack(size int64) *Stack {
	s := &Stack{Size: size, SP: size}
	s.frames = s.base[:0]
	if err := s.Push(Frame{Kind: FrameBase, Size: BaseFrameSize}); err != nil {
		panic("hw: stack smaller than base frame")
	}
	return s
}

// Reset returns the stack to its post-creation state; used when a pooled
// stack is reissued to a new thread.
func (s *Stack) Reset() {
	s.SP = s.Size
	s.frames = s.frames[:0]
	s.HighWater = 0
	_ = s.Push(Frame{Kind: FrameBase, Size: BaseFrameSize})
}

// Push adds a frame, returning ErrStackOverflow if it does not fit.
func (s *Stack) Push(f Frame) error {
	if f.Size < 0 {
		panic("hw: negative frame size")
	}
	if s.SP < f.Size {
		return &ErrStackOverflow{Size: s.Size, SP: s.SP, Need: f.Size}
	}
	s.SP -= f.Size
	s.frames = append(s.frames, f)
	if d := s.Size - s.SP; d > s.HighWater {
		s.HighWater = d
	}
	return nil
}

// Pop removes the top frame. Popping the base frame panics: that is a
// library bug, not a program error.
func (s *Stack) Pop() Frame {
	if len(s.frames) <= 1 {
		panic("hw: popped base stack frame")
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.SP += f.Size
	return f
}

// Depth reports the number of frames currently pushed.
func (s *Stack) Depth() int { return len(s.frames) }

// Top returns the top frame.
func (s *Stack) Top() Frame { return s.frames[len(s.frames)-1] }
