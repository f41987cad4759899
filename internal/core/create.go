package core

import (
	"strconv"

	"pthreads/internal/hw"
	"pthreads/internal/sched"
)

// Create starts a new thread executing fn(arg) (pthread_create). The
// returned handle identifies the thread for Join, Detach, Kill, Cancel
// and the scheduling calls. With attr.Lazy the thread is created in
// StateNew and activated only when first needed.
func (s *System) Create(attr Attr, fn func(arg any) any, arg any) (*Thread, error) {
	return s.create(attr, fn, nil, arg)
}

// CreateCont starts a continuation thread whose first step is step
// (pthread_create for the parked-continuation representation). Only the
// host backing differs from Create: both bind a pooled runner at first
// dispatch, but a continuation holds none across declared parks.
func (s *System) CreateCont(attr Attr, step ContFunc, arg any) (*Thread, error) {
	return s.create(attr, nil, step, arg)
}

// create is the one body of Create and CreateCont: the validation,
// charges, traces, and activation are the same for both
// representations, so they schedule bit-identically. Exactly one of fn
// and step is used.
func (s *System) create(attr Attr, fn func(arg any) any, step ContFunc, arg any) (*Thread, error) {
	if fn == nil && step == nil {
		return nil, EINVAL.Or()
	}
	if attr.InheritSched && s.current != nil {
		attr.Priority = int(s.current.basePrio)
		attr.Policy = s.current.policy
	}
	if attr.Priority == 0 && attr.StackSize == 0 && !sched.ValidPrio(attr.Priority) {
		attr.Priority = sched.DefaultPrio
	}
	if !sched.ValidPrio(attr.Priority) {
		return nil, EINVAL.Or()
	}
	if attr.StackSize != 0 && attr.StackSize < hw.MinStackSize {
		return nil, EINVAL.Or()
	}

	s.enterKernel()
	t := s.allocTCB(attr)
	if step != nil {
		k := s.contArena.Get()
		k.t, k.next, k.Arg = t, step, arg
		k.declared = true
		t.cont = k
		t.contFirst = true
		s.stats.ContThreads++
	} else {
		t.fn = fn
		t.arg = arg
	}
	s.addThread(t)
	s.liveCnt++
	s.stats.ThreadsCreated++
	if attr.Lazy {
		// Deferred activation: stays in StateNew, holding only a TCB.
		// Marked before the created event, so observers can tell it
		// from a thread that activateLocked readies below.
		t.verb = verbActivation
	}
	s.trace(EvState, t, "created", attr.Name)
	if s.tracer != nil {
		// Fork edge for the race checker: creator → child.
		s.emit(TraceEvent{Kind: EvFork, Thread: s.current, Obj: t.name, Arg: strconv.Itoa(int(t.id)), Peer: t})
	}
	if !attr.Lazy {
		s.activateLocked(t)
	}
	s.leaveKernel()
	return t, nil
}

// activateLocked makes a created thread eligible to run. Runs in the
// kernel.
func (s *System) activateLocked(t *Thread) {
	t.state = StateBlocked // transitional: makeReady validates from Blocked
	t.verb = verbNone
	s.makeReady(t, false)
}

// Activate triggers a lazily created thread explicitly. Activation also
// happens implicitly when the thread is joined, signaled, or cancelled.
func (s *System) Activate(t *Thread) error {
	if err := s.checkThread(t); err != OK {
		return err.Or()
	}
	s.enterKernel()
	if t.state == StateNew {
		s.activateLocked(t)
	}
	s.leaveKernel()
	return nil
}

// Self returns the calling thread's handle (pthread_self).
func (s *System) Self() *Thread { return s.current }

// Equal reports whether two handles name the same thread (pthread_equal).
func (s *System) Equal(a, b *Thread) bool { return a == b }

// Errno returns the calling thread's error number; each thread has its
// own, preserved across context switches and signal handlers.
func (s *System) Errno() Errno { return s.current.errno }

// SetErrno sets the calling thread's error number.
func (s *System) SetErrno(e Errno) { s.current.errno = e }

// Join waits for the thread to terminate and returns its exit status
// (pthread_join / pthread_detach semantics for the return value). Joining
// a detached thread is EINVAL; joining self is EDEADLK. Join is an
// interruption point for cancellation. Joining a lazy thread activates
// it.
func (s *System) Join(t *Thread) (any, error) {
	var w waitOp
	w.target = t
	s.joinOp(&w)
	return w.Val, w.Err
}

// joinOp is Join over a frame (see waitOp).
func (s *System) joinOp(w *waitOp) (parked bool) {
	cur, t := s.current, w.target
	if w.phase == 0 {
		if err := s.checkThread(t); err != OK {
			w.Err = err.Or()
			return false
		}
		if t == cur {
			return w.fail(cur, EDEADLK)
		}
		if t.detached {
			return w.fail(cur, EINVAL)
		}
		s.TestCancel()

		s.enterKernel()
		if t.state == StateNew {
			s.activateLocked(t)
		}
		if t.state == StateTerminated {
			s.leaveKernel()
		} else {
			cur.joinTarget = t
			t.joiners.push(cur, joinLevel)
			cur.wake = wakeNone
			w.phase = 1
			if s.block(w.declared, verbJoin) {
				return true
			}
		}
	}
	if w.phase != 0 && cur.wake == wakeCancel {
		s.TestCancel() // exits
	}

	w.Val = t.retval
	if s.tracer != nil {
		// Join edge for the race checker: target → joiner.
		s.emit(TraceEvent{Kind: EvJoin, Thread: cur, Obj: t.name, Arg: strconv.Itoa(int(t.id)), Peer: t})
	}
	s.enterKernel()
	s.reclaim(t)
	s.leaveKernel()
	return false
}

// Detach marks the thread detached (pthread_detach): its resources are
// reclaimed as soon as it terminates (immediately, if it already has),
// and it can no longer be joined or referenced.
func (s *System) Detach(t *Thread) error {
	if err := s.checkThread(t); err != OK {
		return err.Or()
	}
	if t.detached {
		return EINVAL.Or()
	}
	s.enterKernel()
	t.detached = true
	if t.state == StateTerminated {
		s.reclaim(t)
	}
	s.leaveKernel()
	return nil
}

// Once runs fn exactly once across all callers sharing the OnceControl
// (pthread_once). Concurrent callers block until the first completes.
type OnceControl struct {
	state   int // 0 new, 1 running, 2 done
	waiters []*Thread
}

// Done reports whether the once-routine has completed.
func (o *OnceControl) Done() bool { return o.state == 2 }

// Once executes fn through the control block, exactly once.
func (s *System) Once(o *OnceControl, fn func()) error {
	if fn == nil {
		return EINVAL.Or()
	}
	for {
		s.enterKernel()
		switch o.state {
		case 2:
			s.leaveKernel()
			return nil
		case 1:
			t := s.current
			o.waiters = append(o.waiters, t)
			t.wake = wakeNone
			s.block(false, verbOnce)
			continue // re-check state
		case 0:
			o.state = 1
			s.leaveKernel()
			fn()
			s.enterKernel()
			o.state = 2
			for _, w := range o.waiters {
				s.makeReady(w, false)
			}
			o.waiters = nil
			s.leaveKernel()
			return nil
		}
	}
}

// Threads returns the live threads in creation order (diagnostics).
func (s *System) Threads() []*Thread {
	out := make([]*Thread, 0, len(s.all)-s.allDead)
	for _, t := range s.all {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Current is an alias of Self for readability in harness code.
func (s *System) Current() *Thread { return s.current }
