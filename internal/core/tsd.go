package core

// Thread-specific data (pthread_key_create / pthread_setspecific /
// pthread_getspecific). Each key may carry a destructor that runs, with
// the thread's final value, when the thread exits.

// Key names a thread-specific data key.
type Key int

// Limits from the draft standard.
const (
	// MaxKeys is PTHREAD_KEYS_MAX.
	MaxKeys = 128
	// DestructorIterations is PTHREAD_DESTRUCTOR_ITERATIONS: how many
	// rounds of destructors run at thread exit before remaining
	// non-nil values are abandoned.
	DestructorIterations = 4
)

type keySlot struct {
	used       bool
	destructor func(value any)
}

// KeyCreate allocates a thread-specific data key visible to all threads,
// with an optional destructor. EAGAIN when MaxKeys keys exist.
func (s *System) KeyCreate(destructor func(value any)) (Key, error) {
	s.enterKernel()
	defer s.leaveKernel()
	for i := range s.keys {
		if !s.keys[i].used {
			s.keys[i] = keySlot{used: true, destructor: destructor}
			return Key(i), nil
		}
	}
	if len(s.keys) >= MaxKeys {
		return 0, EAGAIN.Or()
	}
	s.keys = append(s.keys, keySlot{used: true, destructor: destructor})
	return Key(len(s.keys) - 1), nil
}

// KeyDelete releases a key (pthread_key_delete). Values stored under it
// remain untouched (no destructors run), per POSIX.
func (s *System) KeyDelete(k Key) error {
	s.enterKernel()
	defer s.leaveKernel()
	if int(k) < 0 || int(k) >= len(s.keys) || !s.keys[k].used {
		return EINVAL.Or()
	}
	s.keys[k] = keySlot{}
	return nil
}

// SetSpecific binds a value to the key for the calling thread.
func (s *System) SetSpecific(k Key, value any) error {
	if int(k) < 0 || int(k) >= len(s.keys) || !s.keys[k].used {
		s.current.errno = EINVAL
		return EINVAL.Or()
	}
	c := s.current.coldState()
	for len(c.tsd) <= int(k) {
		c.tsd = append(c.tsd, nil)
	}
	c.tsd[k] = value
	s.cpu.ChargeInstr(6)
	return nil
}

// GetSpecific returns the calling thread's value for the key (nil if
// never set).
func (s *System) GetSpecific(k Key) any {
	c := s.current.cold
	s.cpu.ChargeInstr(4)
	if c == nil || int(k) < 0 || int(k) >= len(c.tsd) {
		return nil
	}
	return c.tsd[k]
}

// runTSDDestructors runs the destructors for a terminating thread: each
// round clears the stored values and calls the destructors on the old
// ones; rounds repeat (a destructor may set other keys) up to
// DestructorIterations times.
func (s *System) runTSDDestructors(t *Thread) {
	c := t.cold
	if c == nil {
		return
	}
	for round := 0; round < DestructorIterations; round++ {
		ran := false
		for i := range c.tsd {
			v := c.tsd[i]
			if v == nil || i >= len(s.keys) || !s.keys[i].used || s.keys[i].destructor == nil {
				continue
			}
			c.tsd[i] = nil
			ran = true
			s.runProtected(func() { s.keys[i].destructor(v) })
		}
		if !ran {
			return
		}
	}
}
