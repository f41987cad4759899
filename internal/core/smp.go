package core

// The simulated multiprocessor executor. The paper's kernel — and
// everything built on it in this package — is a uniprocessor: one
// virtual clock, one running thread, signals as the only concurrency.
// SMPSystem is the next step the paper gestures at: N virtual CPUs
// (hw.Machine), each with a private clock and cache, executing threads
// with genuinely concurrent *virtual* time. Host execution stays
// single-goroutine-at-a-time (the same baton-passing the uniprocessor
// kernel uses), so every run is deterministic; virtual concurrency
// comes from interleaving the per-CPU clocks.
//
// Scheduling rule: the executor always runs the eligible CPU with the
// smallest (clock, ID) key. A running thread hands the baton back
// whenever another eligible CPU has a smaller key, and each memory
// operation first waits its turn this way — so operations linearize in
// per-CPU virtual-time order (ties broken by CPU ID), which makes the
// simulated memory sequentially consistent and the whole schedule a
// pure function of the initial state. CPUs pull work from per-CPU run
// queues (sched.RunQueues) and steal in fixed ring order when their own
// queue is dry.
//
// The first SMP port of a uniprocessor kernel historically restricted
// what may run where (the big-kernel-lock era); this executor does the
// same: it runs plain compute bodies, Yield/Join, and the lockeng
// engines. The full pthread kernel keeps its uniprocessor semantics.

import (
	"fmt"

	"pthreads/internal/hw"
	"pthreads/internal/lockeng"
	"pthreads/internal/sched"
	"pthreads/internal/vtime"
)

// smpDefaultPrio is the run-queue level SMP threads use; the lock
// engines make their own ordering decisions, so one level suffices.
const smpDefaultPrio = 16

// SMPConfig configures a simulated multiprocessor.
type SMPConfig struct {
	// VCPUs is the number of virtual CPUs (1..hw.MaxVCPUs).
	VCPUs int

	// Machine selects the per-instruction cost model; nil means the
	// SPARCstation IPX preset.
	Machine *hw.CostModel

	// Cache selects the coherence cost model; nil means
	// hw.DefaultCacheModel.
	Cache *hw.CacheModel
}

// SMPThread is one thread of the simulated multiprocessor.
type SMPThread struct {
	sys  *SMPSystem
	id   int
	name string
	body func(*SMPThread)

	resume  chan struct{}
	cpu     int // CPU currently (or last) hosting the thread
	readyAt vtime.Time
	blocked bool
	done    bool
	joiners []*SMPThread

	// Acquires, WaitVUS and HoldVUS accumulate lock statistics when the
	// thread locks through SMPMutex: acquisitions, virtual ns spent
	// waiting for ownership, and virtual ns spent owning. The boundary
	// between the two buckets is one instant — the clock reading taken
	// the moment the engine grants — so every lock-related nanosecond
	// lands in exactly one bucket even when the thread migrates between
	// per-CPU run queues mid-wait or mid-hold (migration switches which
	// VCPU's clock Now() reads, but dispatch only ever advances it).
	Acquires int64
	WaitVUS  int64
	HoldVUS  int64
}

// ID returns the thread's ordinal.
func (t *SMPThread) ID() int { return t.id }

// Name returns the thread's label.
func (t *SMPThread) Name() string { return t.name }

// CPU returns the VCPU currently hosting the thread.
func (t *SMPThread) CPU() int { return t.cpu }

// Now returns the hosting VCPU's local virtual time.
func (t *SMPThread) Now() vtime.Time { return t.sys.cpus[t.cpu].Now() }

type smpCPU struct {
	hw  *hw.VCPU
	cur *SMPThread
}

func (c *smpCPU) Now() vtime.Time { return c.hw.Now() }

// SMPSystem is the simulated multiprocessor executor.
type SMPSystem struct {
	cfg     SMPConfig
	mach    *hw.Machine
	run     *sched.RunQueues[*SMPThread]
	cpus    []*smpCPU
	threads []*SMPThread
	env     *smpEnv

	live     int
	active   *SMPThread
	back     chan struct{}
	started  bool
	aborting bool // Run is unwinding the threads a deadlock left parked
	err      error

	// Dispatches counts thread-to-CPU assignments; the schedule hash
	// folds every dispatch and steal into an FNV-1a checksum that the
	// determinism gate compares across runs.
	Dispatches int64
	schedHash  uint64
}

// NewSMP builds a simulated multiprocessor.
func NewSMP(cfg SMPConfig) *SMPSystem {
	if cfg.VCPUs < 1 {
		cfg.VCPUs = 1
	}
	s := &SMPSystem{
		cfg:       cfg,
		mach:      hw.NewMachine(cfg.Machine, cfg.Cache, cfg.VCPUs),
		run:       sched.NewRunQueues[*SMPThread](cfg.VCPUs),
		back:      make(chan struct{}),
		schedHash: 14695981039346656037, // FNV-1a offset basis
	}
	s.cpus = make([]*smpCPU, cfg.VCPUs)
	for i, v := range s.mach.CPUs {
		s.cpus[i] = &smpCPU{hw: v}
	}
	s.env = &smpEnv{s: s}
	return s
}

// Machine exposes the underlying hardware model for reports.
func (s *SMPSystem) Machine() *hw.Machine { return s.mach }

// Env returns the machine's lock-engine environment.
func (s *SMPSystem) Env() lockeng.Env { return s.env }

// Steals sums successful work steals across CPUs.
func (s *SMPSystem) Steals() int64 {
	var n int64
	for _, c := range s.run.Steals {
		n += c
	}
	return n
}

// ScheduleHash returns the FNV-1a checksum over the dispatch/steal
// sequence — equal hashes across runs mean equal schedules.
func (s *SMPSystem) ScheduleHash() uint64 { return s.schedHash }

func (s *SMPSystem) hash(vals ...int64) {
	h := s.schedHash
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= uint64(v>>(8*uint(i))) & 0xFF
			h *= 1099511628211
		}
	}
	s.schedHash = h
}

// Go registers a thread before Run; thread i starts on CPU i mod N.
func (s *SMPSystem) Go(name string, body func(*SMPThread)) *SMPThread {
	if s.started {
		panic("core: SMPSystem.Go after Run")
	}
	t := &SMPThread{
		sys:    s,
		id:     len(s.threads),
		name:   name,
		body:   body,
		resume: make(chan struct{}),
		cpu:    len(s.threads) % s.cfg.VCPUs,
	}
	s.threads = append(s.threads, t)
	return t
}

// Run executes every registered thread to completion and returns the
// first error (an all-blocked deadlock, if any). The caller's goroutine
// becomes the executor.
func (s *SMPSystem) Run() error {
	if s.started {
		panic("core: SMPSystem.Run reentered")
	}
	s.started = true
	s.live = len(s.threads)
	for _, t := range s.threads {
		s.run.Local(t.cpu).Enqueue(t, smpDefaultPrio)
		go t.main()
	}
	for s.live > 0 {
		c := s.pickCPU()
		if c == nil {
			blocked := 0
			for _, t := range s.threads {
				if t.blocked {
					blocked++
				}
			}
			s.err = fmt.Errorf("smp: all %d remaining threads blocked (deadlock)", blocked)
			break
		}
		if c.cur == nil {
			s.dispatch(c)
		}
		s.active = c.cur
		c.cur.resume <- struct{}{}
		<-s.back
	}
	if s.err != nil {
		s.abort()
	}
	s.active = nil
	return s.err
}

// smpAbort unwinds a thread that Run gave up on.
type smpAbort struct{}

// abort unwinds, one at a time, every thread a deadlock left parked,
// so no thread goroutine outlives Run: closing a thread's resume
// channel makes its park panic with smpAbort, main recovers it, and
// the exit is reported on back. Any SMP operation a deferred call
// makes while the thread unwinds panics the same way at its turn,
// before it could send on back.
func (s *SMPSystem) abort() {
	s.aborting = true
	for _, t := range s.threads {
		if !t.done {
			s.active = t
			close(t.resume)
			<-s.back
		}
	}
}

// park waits until the executor resumes t, and unwinds t if Run has
// closed its channel instead.
func (t *SMPThread) park() {
	if _, ok := <-t.resume; !ok {
		panic(smpAbort{})
	}
}

// dispatch pulls work onto an idle CPU: local queue first, then a
// steal in ring order. pickCPU guaranteed work exists.
func (s *SMPSystem) dispatch(c *smpCPU) {
	t, _, ok := s.run.Pop(c.hw.ID)
	if !ok {
		var victim int
		t, _, victim, ok = s.run.Steal(c.hw.ID)
		if !ok {
			panic("core: smp dispatch with no runnable work")
		}
		s.mach.ChargeSteal(c.hw, instrReadyQueueOp)
		s.hash(2, int64(c.hw.ID), int64(t.id), int64(victim))
	} else {
		c.hw.CPU.ChargeInstr(instrReadyQueueOp)
		s.hash(1, int64(c.hw.ID), int64(t.id))
	}
	// An idle CPU's clock lags; the thread cannot start before the
	// moment it became runnable.
	if t.readyAt > c.Now() {
		c.hw.CPU.Clock.AdvanceTo(t.readyAt)
	}
	c.cur = t
	t.cpu = c.hw.ID
	s.Dispatches++
}

// eligible reports whether the CPU can make progress: it is running a
// thread, or there is queued work anywhere it could pull.
func (s *SMPSystem) eligible(c *smpCPU) bool {
	return c.cur != nil || s.run.Len() > 0
}

// pickCPU returns the eligible CPU with the smallest (clock, ID) key.
func (s *SMPSystem) pickCPU() *smpCPU {
	var best *smpCPU
	for _, c := range s.cpus {
		if !s.eligible(c) {
			continue
		}
		if best == nil || c.Now() < best.Now() {
			best = c
		}
	}
	return best
}

// turn blocks the calling thread until its CPU is the minimum eligible
// key — the point where its next operation is globally next in virtual
// time. Every charge and memory operation calls this first.
func (t *SMPThread) turn() {
	s := t.sys
	if s.aborting {
		panic(smpAbort{})
	}
	mine := s.cpus[t.cpu]
	for {
		yield := false
		for _, c := range s.cpus {
			if c != mine && s.eligible(c) && c.Now() < mine.Now() {
				yield = true
				break
			}
		}
		if !yield {
			return
		}
		s.back <- struct{}{}
		t.park()
	}
}

func (t *SMPThread) main() {
	s := t.sys
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(smpAbort); !ok {
				panic(r)
			}
			s.back <- struct{}{}
		}
	}()
	t.park()
	t.turn()
	t.body(t)
	c := s.cpus[t.cpu]
	now := c.Now()
	for _, j := range t.joiners {
		j.wake(now)
	}
	t.joiners = nil
	t.done = true
	s.live--
	c.cur = nil
	s.back <- struct{}{}
}

func (t *SMPThread) wake(at vtime.Time) {
	t.blocked = false
	t.readyAt = at
	t.sys.run.Local(t.cpu).Enqueue(t, smpDefaultPrio)
}

// Compute charges d virtual nanoseconds of thread-local work.
func (t *SMPThread) Compute(d vtime.Duration) {
	t.turn()
	t.sys.cpus[t.cpu].hw.CPU.Charge(int64(d))
}

// Yield requeues the thread at the tail of its CPU's run queue and
// releases the CPU to dispatch (possibly the same thread again, if the
// queue is otherwise empty).
func (t *SMPThread) Yield() {
	t.turn()
	s := t.sys
	c := s.cpus[t.cpu]
	c.hw.CPU.ChargeInstr(instrReadyQueueOp)
	t.readyAt = c.Now()
	s.run.Local(t.cpu).Enqueue(t, smpDefaultPrio)
	c.cur = nil
	s.back <- struct{}{}
	t.park()
	t.turn()
}

// Join blocks until o finishes. The waker's clock propagates: the
// joiner resumes no earlier than the exit it observed.
func (t *SMPThread) Join(o *SMPThread) {
	t.turn()
	if o == t {
		panic("core: smp thread joining itself")
	}
	if o.done {
		return
	}
	s := t.sys
	o.joiners = append(o.joiners, t)
	c := s.cpus[t.cpu]
	t.blocked = true
	c.cur = nil
	s.back <- struct{}{}
	t.park()
	t.turn()
}

// smpEnv is the lockeng.Env over the simulated multiprocessor: every
// word gets a cache line, operations charge coherence costs to the
// caller's VCPU, and each operation first waits for its global turn —
// which is what serializes the engines' memory traffic.
type smpEnv struct {
	s *SMPSystem
}

func (e *smpEnv) Bind(w *lockeng.Word) { w.SetTag(e.s.mach.NewLine(w.Name())) }

func (e *smpEnv) line(w *lockeng.Word) *hw.Line { return w.Tag().(*hw.Line) }

// op waits for the caller's turn and returns its VCPU. During setup
// (before Run, no active thread) operations are free and uncharged.
func (e *smpEnv) op() *hw.VCPU {
	t := e.s.active
	if t == nil {
		return nil
	}
	t.turn()
	return e.s.cpus[t.cpu].hw
}

func (e *smpEnv) Load(w *lockeng.Word) int64 {
	if v := e.op(); v != nil {
		e.s.mach.Load(v, e.line(w))
	}
	return w.Value()
}

func (e *smpEnv) Store(w *lockeng.Word, v int64) {
	if c := e.op(); c != nil {
		e.s.mach.Store(c, e.line(w))
	}
	e.set(w, v)
}

func (e *smpEnv) Swap(w *lockeng.Word, v int64) int64 {
	if c := e.op(); c != nil {
		e.s.mach.Atomic(c, e.line(w))
	}
	old := w.Value()
	e.set(w, v)
	return old
}

func (e *smpEnv) CAS(w *lockeng.Word, old, new int64) bool {
	if c := e.op(); c != nil {
		e.s.mach.Atomic(c, e.line(w))
	}
	if w.Value() != old {
		return false
	}
	e.set(w, new)
	return true
}

func (e *smpEnv) FetchAdd(w *lockeng.Word, d int64) int64 {
	if c := e.op(); c != nil {
		e.s.mach.Atomic(c, e.line(w))
	}
	old := w.Value()
	e.set(w, old+d)
	return old
}

func (e *smpEnv) Spin(n int) {
	if c := e.op(); c != nil {
		e.s.mach.Spin(c, n)
	}
}

func (e *smpEnv) set(w *lockeng.Word, v int64) { w.SetValue(v) }

// SMPMutex is a lock-engine mutex bound to a simulated multiprocessor,
// with per-thread contexts and wait/hold accounting.
type SMPMutex struct {
	s     *SMPSystem
	eng   *lockeng.Mutex
	ctxs  []*lockeng.Ctx // by thread ID
	acqAt []vtime.Time   // acquisition instant, by owning thread ID
}

// NewSMPMutex creates an engine-backed mutex on the machine.
func (s *SMPSystem) NewSMPMutex(kind lockeng.Kind, name string) *SMPMutex {
	return &SMPMutex{s: s, eng: lockeng.New(kind, s.env, name)}
}

// Engine returns the underlying engine state (tests wind ticket
// counters through it).
func (m *SMPMutex) Engine() *lockeng.Mutex { return m.eng }

func (m *SMPMutex) ctx(t *SMPThread) *lockeng.Ctx {
	for len(m.ctxs) <= t.id {
		m.ctxs = append(m.ctxs, nil)
	}
	if m.ctxs[t.id] == nil {
		m.ctxs[t.id] = m.eng.NewCtx(m.s.env)
	}
	return m.ctxs[t.id]
}

// acquired records t taking ownership at the given instant; Unlock
// reads it back to close the hold. Keyed by thread ID because at an
// engine handoff the next owner can be granted before the releaser
// returns, so two instants briefly coexist.
func (m *SMPMutex) acquired(t *SMPThread, at vtime.Time) {
	for len(m.acqAt) <= t.id {
		m.acqAt = append(m.acqAt, 0)
	}
	m.acqAt[t.id] = at
}

// Lock acquires the mutex for t, spinning on t's VCPU. The single
// post-grant clock reading both ends the wait bucket and starts the
// hold bucket, so the two partition the interval exactly.
func (m *SMPMutex) Lock(t *SMPThread) {
	c := m.ctx(t)
	t0 := t.Now()
	m.eng.Lock(m.s.env, c)
	acq := t.Now()
	t.WaitVUS += int64(acq.Sub(t0))
	t.Acquires++
	m.acquired(t, acq)
}

// TryLock attempts the acquisition without spinning.
func (m *SMPMutex) TryLock(t *SMPThread) bool {
	ok := m.eng.TryLock(m.s.env, m.ctx(t))
	if ok {
		t.Acquires++
		m.acquired(t, t.Now())
	}
	return ok
}

// Unlock releases the mutex and charges the hold — acquisition instant
// to post-release instant — to the releasing thread.
func (m *SMPMutex) Unlock(t *SMPThread) {
	m.eng.Unlock(m.s.env, m.ctx(t))
	t.HoldVUS += int64(t.Now().Sub(m.acqAt[t.id]))
}
