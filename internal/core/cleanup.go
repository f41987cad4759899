package core

// Cleanup handlers. The Pthreads draft suggests implementing
// pthread_cleanup_push/pop as a macro pair that opens and closes a
// lexical scope; the paper argues this defeats language independence and
// implements them as ordinary functions instead — as does this library.
// Handlers run in LIFO order when the thread exits or is cancelled.

// CleanupPush registers a cleanup handler with its argument on the
// calling thread's cleanup stack (pthread_cleanup_push).
func (s *System) CleanupPush(fn func(arg any), arg any) error {
	if fn == nil {
		return EINVAL.Or()
	}
	c := s.current.coldState()
	c.cleanup = append(c.cleanup, cleanupRec{fn: fn, arg: arg})
	s.cpu.ChargeInstr(10)
	return nil
}

// CleanupPop removes the most recently pushed cleanup handler
// (pthread_cleanup_pop), executing it if execute is true. Popping an
// empty stack is EINVAL (unbalanced push/pop — exactly the pairing
// mistake the macro design tried to make impossible, surfaced here as a
// checked error instead).
func (s *System) CleanupPop(execute bool) error {
	t := s.current
	n := t.cleanupDepth()
	if n == 0 {
		t.errno = EINVAL
		return EINVAL.Or()
	}
	c := t.cold
	rec := c.cleanup[n-1]
	c.cleanup = c.cleanup[:n-1]
	s.cpu.ChargeInstr(10)
	if execute {
		rec.fn(rec.arg)
	}
	return nil
}

// CleanupDepth reports the number of pushed cleanup handlers (tests).
func (s *System) CleanupDepth() int { return s.current.cleanupDepth() }

// cleanupDepth counts the thread's pushed cleanup handlers.
func (t *Thread) cleanupDepth() int {
	if t.cold == nil {
		return 0
	}
	return len(t.cold.cleanup)
}
