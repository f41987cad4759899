package core

// Lock-engine mutexes on the uniprocessor kernel: a Mutex created with
// MutexAttr.Engine runs one of the lockeng protocols (TTAS, ticket,
// MCS/CLH, ...) instead of the kernel's native test-and-set plus
// suspend-queue path. On a single virtual CPU a spinner that never
// yields would spin forever — the lock holder could not run — so the
// engine environment maps every Spin beat to sched_yield, which is
// exactly the spin-versus-yield adaptation "Basic Lock Algorithms in
// Lightweight Thread Environments" studies for uniprocessor thread
// libraries. Contenders therefore stay Ready (they never park in
// m.waiters and never set waitingMutex), hand-off order is the
// engine's own (ticket/queue FIFO rather than the kernel's priority
// queues), and each yield is a kernel-exit switch point the explorer
// can preempt — which is what lets bounded DFS drive the broken
// unfair-handoff engine into its mutual-exclusion violation.
//
// Priority protocols are rejected at NewMutex: inheritance and ceiling
// need the suspend queue (there is no one to boost when waiters spin),
// and a spinning waiter would invert priorities silently. Condition
// variables are likewise rejected in the condition wait — the kernel's signal
// hand-off morphs cond waiters onto the mutex suspend queue, which an
// engine mutex does not have.

import (
	"pthreads/internal/lockeng"
)

// lockEnv is the lockeng.Env over the uniprocessor kernel: operations
// charge the single CPU's existing primitive costs, and Spin yields the
// processor so the holder (and everyone else) keeps running.
type lockEnv struct {
	s *System
}

func (e *lockEnv) Bind(w *lockeng.Word) {}

func (e *lockEnv) Load(w *lockeng.Word) int64 {
	e.s.cpu.ChargeInstr(1)
	return w.Value()
}

func (e *lockEnv) Store(w *lockeng.Word, v int64) {
	e.s.cpu.ChargeInstr(1)
	w.SetValue(v)
}

func (e *lockEnv) Swap(w *lockeng.Word, v int64) int64 {
	e.s.cpu.ChargeTAS()
	old := w.Value()
	w.SetValue(v)
	return old
}

func (e *lockEnv) CAS(w *lockeng.Word, old, new int64) bool {
	e.s.cpu.ChargeCAS()
	if w.Value() != old {
		return false
	}
	w.SetValue(new)
	return true
}

func (e *lockEnv) FetchAdd(w *lockeng.Word, d int64) int64 {
	e.s.cpu.ChargeTAS()
	old := w.Value()
	w.SetValue(old + d)
	return old
}

func (e *lockEnv) Spin(n int) {
	if n > 0 {
		e.s.cpu.ChargeInstr(int64(n))
	}
	e.s.Yield()
}

// engCtxFor returns (lazily creating) the calling thread's engine
// context for this mutex. Lazy creation is safe here: the simulation is
// single-threaded on the host, and context IDs are assigned in
// first-lock order, which is itself deterministic.
func (m *Mutex) engCtxFor(t *Thread) *lockeng.Ctx {
	c := m.engCtxs[t]
	if c == nil {
		if m.engCtxs == nil {
			m.engCtxs = make(map[*Thread]*lockeng.Ctx)
		}
		c = m.eng.NewCtx(m.s.lockEnv)
		m.engCtxs[t] = c
	}
	return c
}

// EngineTicketBase winds an idle ticket-engine mutex's counters to base
// modulo 2^16, so workloads can start right below the overflow edge and
// drive the wraparound comparison path. EINVAL unless m runs a ticket
// engine; the caller must hold the mutex idle (no owner, no spinners).
func (s *System) EngineTicketBase(m *Mutex, base int64) error {
	if m.eng == nil || m.eng.Kind() != lockeng.KindTicket {
		return EINVAL.Or()
	}
	m.eng.SetTicketBase(s.lockEnv, base)
	return nil
}

// engineLock acquires an engine mutex for the current thread, spinning
// (with yields) until the protocol grants it.
func (s *System) engineLock(m *Mutex) {
	t := s.current
	c := m.engCtxFor(t)
	if !m.eng.TryLock(s.lockEnv, c) {
		s.stats.MutexContentions++
		m.Contentions++
		s.traceMutex(OpBlock, t, m, "spinning")
		m.eng.Lock(s.lockEnv, c)
	}
	m.owner = t
	m.ownerWord.Store(int64(t.id))
	t.own(m)
	s.traceMutex(OpLock, t, m, "")
	if s.explorer != nil {
		s.exploreLockPoint()
	} else if s.cfg.Pervert == PervertMutexSwitch {
		s.pervertMutexSwitch()
	}
}

// engineTryLock attempts a non-blocking engine acquisition.
func (s *System) engineTryLock(m *Mutex) bool {
	t := s.current
	if !m.eng.TryLock(s.lockEnv, m.engCtxFor(t)) {
		return false
	}
	m.owner = t
	m.ownerWord.Store(int64(t.id))
	t.own(m)
	s.traceMutex(OpLock, t, m, "trylock")
	return true
}

// engineUnlock releases an engine mutex. Kernel-level ownership is
// cleared — and the release traced — *before* the engine's protocol
// runs: the unfair engines yield inside Unlock, and the next owner may
// acquire (and set m.owner) before this thread returns.
func (s *System) engineUnlock(m *Mutex) {
	t := s.current
	t.disown(m)
	s.cpu.ChargeInstr(8)
	m.owner = nil
	m.ownerWord.Store(0)
	s.traceMutex(OpUnlock, t, m, "")
	m.eng.Unlock(s.lockEnv, m.engCtxFor(t))
}
