package core

import (
	"fmt"

	"pthreads/internal/hw"
	"pthreads/internal/lockeng"
	"pthreads/internal/sched"
)

// Protocol selects a mutex's priority protocol.
type Protocol int

const (
	// ProtocolNone is a plain mutex with no priority protocol.
	ProtocolNone Protocol = iota
	// ProtocolInherit is priority inheritance: a thread holding the
	// mutex inherits the priority of the highest-priority thread
	// contending for it, transitively.
	ProtocolInherit
	// ProtocolCeiling is priority ceiling emulation via the stack
	// resource policy (SRP): the locking thread's priority is raised to
	// the mutex's ceiling at lock time and restored at unlock.
	ProtocolCeiling
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolNone:
		return "none"
	case ProtocolInherit:
		return "inherit"
	case ProtocolCeiling:
		return "ceiling"
	}
	return "unknown-protocol"
}

// MutexAttr configures a mutex at initialization.
type MutexAttr struct {
	// Protocol is the priority protocol.
	Protocol Protocol
	// Ceiling is the priority ceiling (ProtocolCeiling only). It must be
	// at least the priority of the highest-priority thread that will
	// ever lock the mutex.
	Ceiling int
	// Primitive selects the atomic lock path; the zero value
	// (hw.TASOnly) is remapped to the paper's choice, hw.TASWithRAS,
	// unless PrimitiveSet marks an explicit ablation choice.
	Primitive hw.LockPrimitive
	// PrimitiveSet marks Primitive as deliberately chosen (the
	// lock-primitive ablation benchmark sets it).
	PrimitiveSet bool
	// Engine selects a lock-engine protocol (lockeng) instead of the
	// kernel's native test-and-set + suspend path. Engine mutexes spin
	// with yields rather than parking; they require ProtocolNone and do
	// not compose with condition variables (see enginemutex.go).
	Engine lockeng.Kind
	// Name labels the mutex in traces.
	Name string
}

// Mutex is a POSIX mutex (pthread_mutex_t). Create it with
// System.NewMutex; the zero value is not usable.
type Mutex struct {
	s         *System
	name      string
	protocol  Protocol
	ceiling   int
	primitive hw.LockPrimitive

	lockWord  hw.Word
	ownerWord hw.Word
	owner     *Thread
	waiters   waitList
	// ownedNext links the mutexes the owner holds (Thread.owned).
	ownedNext *Mutex

	// eng, when non-nil, replaces the native lock path with a lockeng
	// protocol; engCtxs holds each thread's per-lock engine context.
	eng     *lockeng.Mutex
	engCtxs map[*Thread]*lockeng.Ctx

	// Contentions counts lock attempts that had to suspend.
	Contentions int64
}

// NewMutex initializes a mutex (pthread_mutex_init).
func (s *System) NewMutex(attr MutexAttr) (*Mutex, error) {
	switch attr.Protocol {
	case ProtocolNone, ProtocolInherit:
	case ProtocolCeiling:
		if !sched.ValidPrio(attr.Ceiling) {
			return nil, EINVAL.Or()
		}
	default:
		return nil, EINVAL.Or()
	}
	prim := attr.Primitive
	if !attr.PrimitiveSet {
		prim = hw.TASWithRAS
	}
	if attr.Protocol == ProtocolInherit && prim == hw.TASOnly {
		// Inheritance requires the owner to be recorded atomically with
		// the lock (the whole point of Figure 4).
		return nil, EINVAL.Or()
	}
	name := attr.Name
	if name == "" {
		name = "mutex"
	}
	m := &Mutex{s: s, name: name, protocol: attr.Protocol, ceiling: attr.Ceiling, primitive: prim}
	if attr.Engine != lockeng.KindNone {
		if attr.Protocol != ProtocolNone {
			// Spinning waiters never park, so there is nobody to boost:
			// the priority protocols need the suspend queue.
			return nil, EINVAL.Or()
		}
		if s.lockEnv == nil {
			s.lockEnv = &lockEnv{s: s}
		}
		m.eng = lockeng.New(attr.Engine, s.lockEnv, name)
	}
	return m, nil
}

// MustMutex is NewMutex that panics on invalid attributes; a convenience
// for examples and tests.
func (s *System) MustMutex(attr MutexAttr) *Mutex {
	m, err := s.NewMutex(attr)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the mutex's label.
func (m *Mutex) Name() string { return m.name }

// Protocol returns the mutex's priority protocol.
func (m *Mutex) Protocol() Protocol { return m.protocol }

// Ceiling returns the priority ceiling (meaningful for ProtocolCeiling).
func (m *Mutex) Ceiling() int { return m.ceiling }

// Owner returns the thread currently holding the mutex, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

// Lock acquires the mutex (pthread_mutex_lock), suspending the calling
// thread on contention. Locking a mutex is deliberately not an
// interruption point. Errors: EDEADLK if the caller already holds it,
// EINVAL if the caller's priority exceeds the ceiling.
func (m *Mutex) Lock() error {
	s := m.s
	if e := s.lockCheck(m); e != OK {
		return e.Or()
	}
	s.mutexLock(m)
	return nil
}

// TryLock acquires the mutex only if it is free (pthread_mutex_trylock),
// returning EBUSY otherwise.
func (m *Mutex) TryLock() error {
	s := m.s
	t := s.current
	if e := s.lockCheck(m); e != OK {
		return e.Or()
	}
	if m.eng != nil {
		if !s.engineTryLock(m) {
			t.errno = EBUSY
			return EBUSY.Or()
		}
		return nil
	}
	if !s.acquireAtomic(m, t) {
		t.errno = EBUSY
		return EBUSY.Or()
	}
	s.afterAcquire(m, t)
	return nil
}

// Unlock releases the mutex (pthread_mutex_unlock). Only the owner may
// unlock (EPERM). If threads are waiting, ownership passes directly to
// the highest-priority waiter.
func (m *Mutex) Unlock() error {
	s := m.s
	t := s.current
	if m.owner != t {
		t.errno = EPERM
		return EPERM.Or()
	}
	s.mutexUnlock(m)
	return nil
}

// Destroy invalidates the mutex (pthread_mutex_destroy); EBUSY while
// locked or contended.
func (m *Mutex) Destroy() error {
	if m.owner != nil || m.waiters.head != nil {
		return EBUSY.Or()
	}
	m.s = nil
	return nil
}

// acquireAtomic runs the user-level atomic acquisition path: the lock
// primitive of Figure 4 (or an ablation variant), plus the protocol
// attribute check the paper notes every lock now pays. It never enters
// the Pthreads kernel — this is the paper's uncontended fast path, a
// handful of user-mode instructions.
//
// The virtual cost of each primitive is charged in one combined clock
// advance whose totals are bit-identical to the seed's piecewise
// charges (12 attribute-check instructions + the primitive). The RAS
// restart window of hw.Atomics.LockRAS is not opened here: within the
// simulation, signals are only delivered at explicit poll points, never
// in the middle of this host-side straight-line code, so the sequence
// can never be observed mid-flight. hw.LockRAS remains the reference
// model of Figure 4 (and its restart path is exercised by the hw tests).
func (s *System) acquireAtomic(m *Mutex, t *Thread) bool {
	switch m.primitive {
	case hw.TASWithRAS:
		// 12 attribute-check instructions, the ldstub, and the six
		// further instructions of the Figure 4 restartable sequence.
		s.cpu.ChargeInstrTAS(12 + 6)
		old := m.lockWord.Load()
		m.lockWord.Store(-1) // ldstub stores all ones even when it loses
		if old != 0 {
			return false
		}
		m.ownerWord.Store(int64(t.id))
	case hw.CompareAndSwap:
		s.cpu.ChargeInstrCAS(12)
		if m.lockWord.Load() != 0 {
			return false
		}
		m.lockWord.Store(int64(t.id))
		m.ownerWord.Store(int64(t.id))
	case hw.TASOnly:
		s.cpu.ChargeInstrTAS(12)
		old := m.lockWord.Load()
		m.lockWord.Store(-1)
		if old != 0 {
			return false
		}
		// Owner recorded non-atomically: fine without protocols.
		m.ownerWord.Store(int64(t.id))
	default:
		return false
	}
	m.owner = t
	return true
}

// afterAcquire completes a successful user-level acquisition: ownership
// bookkeeping, the SRP ceiling boost, tracing, and the mutex-switch
// perverted policy. Only the ceiling protocol enters the kernel here;
// the common no-protocol acquisition stays entirely in user mode.
func (s *System) afterAcquire(m *Mutex, t *Thread) {
	t.own(m)
	if m.protocol == ProtocolCeiling {
		s.enterKernel()
		c := t.coldState()
		c.ceilStack = append(c.ceilStack, int(t.prio))
		if m.ceiling > int(t.prio) {
			s.setPriority(t, m.ceiling, true)
		}
		s.leaveKernel()
	}
	s.traceMutex(OpLock, t, m, "")
	if s.explorer != nil {
		s.exploreLockPoint()
	} else if s.cfg.Pervert == PervertMutexSwitch {
		s.pervertMutexSwitch()
	}
}

// lockCheck is the argument check of a lock attempt by the calling
// thread: EDEADLK if it already holds m, EINVAL if its priority exceeds
// m's ceiling. A failure also becomes the thread's errno.
func (s *System) lockCheck(m *Mutex) Errno {
	t := s.current
	if m.owner == t {
		t.errno = EDEADLK
	} else if m.protocol == ProtocolCeiling && int(t.prio) > m.ceiling {
		t.errno = EINVAL
	} else {
		return OK
	}
	return t.errno
}

// mutexLock is the lock operation past the argument check, shared by
// Lock, the fake-call wrapper's conditional-wait reacquisition and the
// timeout/cancel paths of the condition wait. The uncontended paths run
// ahead of the frame; only the contended one needs it.
func (s *System) mutexLock(m *Mutex) {
	if !s.lockFast(m) {
		var w waitOp
		w.mu = m
		s.lockSlow(&w)
	}
}

// lockFast acquires m without suspending when it can: an engine mutex
// spins with yields, and a free native mutex is taken entirely in user
// mode (the Figure 4 sequence plus ownership bookkeeping, no kernel
// entry). It reports false when the caller must suspend.
func (s *System) lockFast(m *Mutex) bool {
	if m.eng != nil {
		s.engineLock(m)
		return true
	}
	t := s.current
	if s.acquireAtomic(m, t) {
		s.afterAcquire(m, t)
		return true
	}
	return false
}

// lockOp is Mutex.Lock over a frame (see waitOp).
func (s *System) lockOp(w *waitOp) (parked bool) {
	if w.phase == 0 {
		if e := s.lockCheck(w.mu); e != OK {
			w.Err = e.Or()
			return false
		}
		if s.lockFast(w.mu) {
			return false
		}
	}
	return s.lockSlow(w)
}

// lockSlow is the contended half of the lock operation: enter the kernel
// and suspend until the unlocker hands over ownership.
func (s *System) lockSlow(w *waitOp) (parked bool) {
	t, m := s.current, w.mu
	if w.phase == 0 {
		// Contention: enter the kernel and suspend.
		s.enterKernel()
		s.stats.MutexContentions++
		m.Contentions++
		if s.tracer != nil {
			s.traceMutex(OpBlock, t, m, fmt.Sprintf("owner=%v", m.owner))
		}

		// Re-test under kernel protection: the owner may have released
		// between the failed test-and-set and kernel entry.
		if m.lockWord.Load() == 0 {
			s.atoms.TAS(&m.lockWord)
			m.ownerWord.Store(int64(t.id))
			m.owner = t
			s.leaveKernel()
			s.afterAcquire(m, t)
			return false
		}

		if s.tracer != nil {
			// Emitted before the inheritance boost charges its queue
			// ops, so the contention timestamp matches the "block"
			// event above.
			s.emit(TraceEvent{Kind: EvContend, Thread: t, Mutex: m, Peer: m.owner})
		}
		if m.protocol == ProtocolInherit {
			s.boostOwnerChain(m, int(t.prio))
		}
		t.waitingMutex = m
		m.waiters.push(t, int(t.prio))
		t.wake = wakeNone
		w.phase = 1
		if s.block(w.declared, verbMutex) {
			return true
		}
	}

	// Woken: the unlocker handed us ownership directly. Resuming the
	// interrupted lock operation re-establishes its frame and re-checks
	// the acquisition.
	s.cpu.ChargeInstr(instrLockResume)
	if m.owner != t {
		panic(fmt.Sprintf("core: %v woke from mutex %s without ownership", t, m.name))
	}
	t.waitingMutex = nil
	s.traceMutex(OpRelock, t, m, "after contention")
	if s.explorer != nil {
		s.exploreLockPoint()
	} else if s.cfg.Pervert == PervertMutexSwitch {
		s.pervertMutexSwitch()
	}
	return false
}

// mutexUnlock releases the mutex, restoring any priority boost and
// handing the mutex to the highest-priority waiter.
func (s *System) mutexUnlock(m *Mutex) {
	if m.eng != nil {
		s.engineUnlock(m)
		return
	}
	t := s.current
	t.disown(m)
	if m.protocol == ProtocolNone && m.waiters.head == nil {
		// Fast path: clear the word, no kernel entry. One combined
		// charge: 8 owned-list/attribute instructions + 12 for the
		// clear, identical in total to the seed's two charges.
		s.cpu.ChargeInstr(8 + 12)
		m.owner = nil
		m.ownerWord.Store(0)
		m.lockWord.Store(0)
		s.traceMutex(OpUnlock, t, m, "")
		return
	}
	s.cpu.ChargeInstr(8) // owned-list bookkeeping + attribute check
	s.enterKernel()
	s.releaseLocked(m, "")
	s.leaveKernel()
}

// own puts m at the head of t's list of held mutexes.
func (t *Thread) own(m *Mutex) {
	m.ownedNext = t.owned
	t.owned = m
}

// disown drops m from t's list of held mutexes. A release is usually of
// the most recent acquisition, at the head.
func (t *Thread) disown(m *Mutex) {
	for p := &t.owned; *p != nil; p = &(*p).ownedNext {
		if *p == m {
			*p = m.ownedNext
			m.ownedNext = nil
			return
		}
	}
}

// releaseLocked is the kernel half of a release by the current thread,
// which has already disowned m: undo the protocol's priority boost, then
// hand the mutex to the highest-priority waiter or clear it. Both
// releases that enter the kernel share it: a contended or protocol
// unlock, and the release that enters a condition wait (detail tells
// them apart in the trace). Runs in the kernel.
func (s *System) releaseLocked(m *Mutex, detail string) {
	t := s.current
	switch m.protocol {
	case ProtocolInherit:
		// "Linear search of locked mutexes" to find the remaining
		// boost; reset places the thread at the head of its level.
		if np := s.recomputePrio(t); np != int(t.prio) {
			s.setPriority(t, np, true)
		}
	case ProtocolCeiling:
		var saved int
		if c := t.cold; c != nil && len(c.ceilStack) > 0 {
			n := len(c.ceilStack)
			saved = c.ceilStack[n-1]
			c.ceilStack = c.ceilStack[:n-1]
		} else {
			saved = int(t.basePrio)
		}
		if s.cfg.MixedProtocolUnlock == MixLinearSearch {
			// Safe mixing: recompute across every held mutex instead
			// of trusting the stack (Table 4, column Pi).
			if np := s.recomputePrio(t); np != int(t.prio) {
				s.setPriority(t, np, true)
			}
		} else if saved != int(t.prio) {
			// SRP proper: restore the pre-lock priority (Table 4,
			// column Pc — diverges if an inheritance boost arrived in
			// between).
			s.setPriority(t, saved, true)
		}
	}

	if w := m.waiters.pop(); w != nil {
		s.grantLocked(m, w)
	} else {
		m.owner = nil
		m.ownerWord.Store(0)
		m.lockWord.Store(0)
	}
	s.traceMutex(OpUnlock, t, m, detail)
}

// grantLocked transfers mutex ownership to a woken waiter. Runs in the
// kernel; the waiter may have been blocked in Lock or parked on the mutex
// by a condition-variable signal.
func (s *System) grantLocked(m *Mutex, w *Thread) {
	s.cpu.ChargeInstr(instrMutexGrant)
	m.owner = w
	m.ownerWord.Store(int64(w.id))
	w.own(m)
	if m.protocol == ProtocolCeiling {
		c := w.coldState()
		c.ceilStack = append(c.ceilStack, int(w.prio))
		if m.ceiling > int(w.prio) {
			w.prio = int8(m.ceiling)
			if s.tracer != nil {
				s.trace(EvPrio, w, prioName(int(w.prio)), "ceiling boost at grant")
			}
		}
	}
	if w.wake == wakeNone {
		w.wake = wakeGrant
	}
	s.traceMutex(OpGrant, w, m, "")
	s.makeReady(w, false)
}

// boostOwnerChain applies the inheritance boost transitively: the owner of
// the contended mutex inherits prio; if that owner is itself blocked on a
// mutex, its owner inherits too, and so on.
func (s *System) boostOwnerChain(m *Mutex, prio int) {
	for m != nil {
		o := m.owner
		if o == nil || int(o.prio) >= prio {
			return
		}
		s.setPriority(o, prio, true)
		if s.tracer != nil {
			s.trace(EvPrio, o, prioName(prio), "priority inheritance")
		}
		m = o.waitingMutex
	}
}

// recomputePrio performs the unlock-side linear search: the thread's
// priority is the maximum of its base priority, the priorities of threads
// contending for inheritance mutexes it still holds, and the ceilings of
// ceiling mutexes it still holds.
func (s *System) recomputePrio(t *Thread) int {
	p := int(t.basePrio)
	for m := t.owned; m != nil; m = m.ownedNext {
		s.cpu.ChargeInstr(6)
		switch m.protocol {
		case ProtocolInherit:
			if w := m.waiters.head; w != nil && int(w.qLevel) > p {
				p = int(w.qLevel)
			}
		case ProtocolCeiling:
			if m.ceiling > p {
				p = m.ceiling
			}
		}
	}
	return p
}
