package core

import (
	"fmt"
	"math/rand"
	"strings"

	"pthreads/internal/arena"
	"pthreads/internal/hw"
	"pthreads/internal/sched"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// MixMode selects how a priority boost is undone when mutexes with
// different protocols are nested — the ambiguity the paper analyzes with
// Table 4.
type MixMode int

const (
	// MixStack restores the pre-lock priority from the SRP ceiling stack
	// on unlocking a ceiling mutex: fast, but when ceiling and
	// inheritance sections are nested it discards an inheritance boost
	// (the "protocol divergence" of Table 4, column Pc).
	MixStack MixMode = iota
	// MixLinearSearch recomputes the priority by a linear search over
	// every mutex still held, regardless of protocol — the safe
	// composition the paper recommends if the protocols must mix
	// (column Pi), at the cost of degrading the ceiling protocol to
	// inheritance-like bookkeeping.
	MixLinearSearch
)

// String names the mix mode.
func (m MixMode) String() string {
	if m == MixStack {
		return "stack"
	}
	return "linear-search"
}

// Config parameterizes a thread system.
type Config struct {
	// Machine is the cost model; nil selects the SPARCstation IPX.
	Machine *hw.CostModel
	// MainPriority is the initial thread's priority (default
	// sched.DefaultPrio).
	MainPriority int
	// MainPolicy is the initial thread's scheduling policy.
	MainPolicy Policy
	// Quantum is the SCHED_RR time slice (default 10ms of virtual time).
	Quantum vtime.Duration
	// PoolSize preallocates that many TCB+stack pairs (default 8).
	PoolSize int
	// DisablePool forces every creation through heap allocation; the
	// pool-ablation benchmark uses it to reproduce the paper's "70% of
	// thread creation time is allocation" claim.
	DisablePool bool
	// DefaultStackSize overrides the stack size for threads whose
	// attributes do not specify one.
	DefaultStackSize int64
	// Pervert selects a perverted scheduling debug policy.
	Pervert PervertPolicy
	// Seed seeds the PRNG of the random-switch policy.
	Seed int64
	// MixedProtocolUnlock selects the Table 4 behaviour (see MixMode).
	MixedProtocolUnlock MixMode
	// Tracer, when non-nil, receives every scheduling/synchronization
	// event with its virtual timestamp. It is the one observer hook:
	// the profiler (internal/metrics) and the span plane's fork/join
	// half (internal/obs) are tracers too, attached beside a recorder
	// with trace.Tee.
	Tracer Tracer
	// Explorer, when non-nil, drives the schedule-exploration engine: it
	// is consulted at every switch point and may force the context
	// switch of its choice (see internal/explore). Mutually exclusive
	// with Pervert — an active Explorer takes precedence.
	Explorer Explorer
	// ExternalEvents declares that events may arrive from outside this
	// system (another host on a network fabric). An idle system with no
	// local timer then sleeps on its clock instead of declaring deadlock
	// — the fabric detects fleet-wide deadlock across all hosts.
	ExternalEvents bool
}

// Stats aggregates the library-level counters the evaluation harness
// reports. UNIX-level counters (syscalls, signals lost) live on the
// simulated kernel.
type Stats struct {
	ContextSwitches  int64
	Preemptions      int64
	KernelEntries    int64
	DispatcherRuns   int64
	ThreadsCreated   int64
	ThreadsExited    int64
	SignalsInternal  int64 // delivered thread-to-thread without UNIX help
	SignalsExternal  int64 // demultiplexed from process-level signals
	FakeCalls        int64
	Cancellations    int64
	MutexContentions int64
	CondWaits        int64
	LostThreadSigs   int64 // overwritten in a thread's per-signal pending slot
	PoolHits         int64
	PoolMisses       int64

	// Ready-queue pressure (host-side ring counters, snapshotted from the
	// scheduler on read): peak depth, ring wrap-arounds, capacity
	// growths, dispatcher picks and the ring entries searches compared
	// over the run. Purely diagnostic — no virtual cost attaches to
	// them.
	ReadyMaxDepth int64
	ReadyWraps    int64
	ReadyGrows    int64
	ReadyPicks    int64
	ReadyScanned  int64

	// Blocking-I/O jacket counters (see fdwait.go).
	FDWaits        int64 // suspensions on a per-descriptor wait queue
	FDWakeups      int64 // waiters designated by a SIGIO completion
	FDEINTRs       int64 // jacket calls interrupted by a handled signal
	FDTimeouts     int64 // timed jacket calls that expired
	FDBytes        int64 // bytes moved through jacket calls
	FDBlockedNS    int64 // total virtual time threads spent blocked on fds
	FDMaxWaitDepth int64 // peak depth of any single fd wait queue

	// Execution-context counters (host-side representation only — no
	// virtual cost attaches to any of them; see cont.go and runner.go).
	// The runner counters cover every thread: main and Create threads
	// bind a runner at their first dispatch, continuation threads at
	// every dispatch after a declared park. Lockstep tests comparing the
	// two representations zero these before comparing.
	ContThreads    int64 // continuation threads created
	ContParked     int64 // gauge: cont threads currently holding no runner
	RunnerBinds    int64 // dispatches served by binding a pooled runner
	RunnerLive     int64 // gauge: runner goroutines alive (bound + idle)
	RunnerPeak     int64 // high-water mark of RunnerLive
	ArenaChunks    int64 // chunks carved by the TCB and cont-frame arenas
	ArenaSlotBytes int64 // host bytes per TCB arena slot

	// Baton transport (host-side; see passBaton): how each dispatch
	// reached its thread's runner. Kill messages not counted.
	BatonSends        int64 // resumes sent on a runner's channel
	RunnerTrampolines int64 // switches taken on the calling runner, no send
}

// sigactionRec is the process-wide action table entry for one signal
// (installed by Sigaction).
type sigactionRec struct {
	Handler SigHandler
	Mask    unixkern.Sigset
	Ignore  bool
}

// SigHandler is a per-thread user signal handler. It runs via a fake call
// at the priority of the thread the signal was directed to. The context
// exposes the redirect hook the Ada runtime needs.
type SigHandler func(sig unixkern.Signal, info *unixkern.SigInfo, sc *SigContext)

// System is one instance of the Pthreads library: one simulated process on
// one simulated uniprocessor. Create it with New, then call Run with the
// initial thread's body. Systems are independent; tests run many of them.
type System struct {
	cfg   Config
	clock *vtime.Clock
	kern  *unixkern.Kernel
	proc  *unixkern.Process
	cpu   *hw.CPU
	atoms *hw.Atomics

	// The monolithic monitor: the kernel flag guards all state below;
	// the dispatcher flag requests a dispatcher run at kernel exit.
	kernelFlag     bool
	dispatcherFlag bool
	caughtInKernel []*unixkern.SigInfo

	ready   sched.Queue[*Thread]
	current *Thread
	// all holds the live threads in creation order (the rule-5 search
	// order). Reclaimed slots are tombstoned to nil and compacted once
	// they outnumber the live entries, so reclaiming each of a million
	// threads costs O(1) amortized instead of an O(n) slice shift.
	// Every iteration over the roster skips nil slots, which keeps the
	// observed sequence — and the per-thread scan charges — identical
	// to an eagerly compacted list.
	all     []*Thread
	allDead int // tombstoned entries in all
	nextID  ThreadID
	liveCnt int

	sigactions     [unixkern.NSIGAll]sigactionRec
	processPending [unixkern.NSIGAll]*unixkern.SigInfo

	// Per-descriptor wait lists of the blocking-I/O jackets, sharded by
	// fd hash (see fdwait.go): each shard holds a dense slice of per-fd
	// read/write list heads, so the hot park/wake path indexes two
	// arrays instead of hashing into one global map. The lists are
	// threaded through the waiters' TCBs, so a slot owns no memory.
	fdShards [fdwShardCount]fdwShard
	// fdNames interns the per-queue trace labels ("fd3/read"), so a
	// traced I/O workload formats each label once instead of per event.
	fdNames map[fdKey]string

	// Runner machinery (see runner.go and cont.go). contHandoff marks
	// the dispatch of a declared park (leave): contextSwitch records the
	// selected thread in contBaton and returns without passing the baton,
	// so leave can pass it itself after its last read of the parked
	// thread — as a mark on its own runner when the selected thread was
	// bound to it, as a channel send otherwise (passBaton).
	// The runner pool is kernel-context state: no lock needed.
	contHandoff bool
	contBaton   *Thread
	runnerIdle  []*runner
	runnerLive  int64
	runnerPeak  int64

	// Arena-backed kernel records: TCBs are carved and never returned
	// (a reclaimed handle must keep reporting ESRCH, so dead TCBs are
	// not reused in place); cont frames are recycled.
	tcbArena  *arena.Arena[Thread]
	contArena *arena.Arena[Cont]

	pool          []poolEntry
	prng          *rand.Rand // built at the first draw (rng)
	lockEnv       *lockEnv   // lazily created when a mutex selects a lock engine
	quantum       vtime.Duration
	sliceTimer    vtime.TimerID
	sliceFor      *Thread
	sliceUserMark int64 // sliceFor's userNS when the quantum was armed
	keys          []keySlot
	stats         Stats
	tracer        Tracer
	fdBlockedNow  int  // threads currently suspended on fd wait queues
	pervertArm    bool // set when the active perverted policy wants a switch at kernel exit
	randomPick    bool // random-switch: pick the next thread at random

	// PRNG audit: every draw the scheduler consumes must correspond to
	// an applied scheduling decision, or record/replay token streams
	// desynchronize (see pervert_draws_test.go). forcedNext preserves a
	// draw- or explorer-committed pick across the dispatch restart arc,
	// which would otherwise discard it (re-selecting by plain priority
	// after the draw was already consumed).
	prngDraws     int64
	prngDecisions int64
	pendingPick   *Thread // thread chosen by a PRNG draw, not yet dispatched
	lastPickPrio  int     // queue level the forced/explored pick was dequeued from
	lastPickForce bool    // selectNext's return came from a draw/explorer pick
	forcedNext    *Thread // pick preserved across the restart arc
	forcedPrio    int

	// Exploration-engine state (all dormant while explorer is nil).
	explorer         Explorer
	exploreIDs       []ThreadID // scratch ready-set snapshot for ChooseAt
	explorePick      int        // ready-queue index the explorer chose
	explorePickArmed bool       // explorePick is valid for the next selectNext
	exploreSquelch   bool       // suppress the next kernel-exit decision point
	runCalled        bool
	finished         bool
	finishErr        error
	exitStatus       any
	doneCh           chan struct{}
	inUniversal      int // nesting depth of the universal signal handler

	// Mask state across a context switch out of the universal handler.
	maskedForSwitch bool
	preSwitchMask   unixkern.Sigset
	// universalCharged marks that the innermost universal-handler frame
	// already paid its disable-before-switch sigsetmask; later switches
	// under the same frame flip the mask kernel-internally, keeping the
	// budget at two system calls per received signal.
	universalCharged bool
}

type poolEntry struct {
	tcb   *Thread
	stack *hw.Stack
}

// New creates a thread system over a fresh simulated machine.
func New(cfg Config) *System {
	if cfg.Machine == nil {
		cfg.Machine = hw.SPARCstationIPX()
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 10 * vtime.Millisecond
	}
	if cfg.MainPriority == 0 {
		cfg.MainPriority = sched.DefaultPrio
	}
	if !sched.ValidPrio(cfg.MainPriority) {
		panic(fmt.Sprintf("core: main priority %d out of range", cfg.MainPriority))
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 8
	}
	if cfg.DefaultStackSize == 0 {
		cfg.DefaultStackSize = hw.DefaultStackSize
	}
	k := unixkern.New(cfg.Machine)
	s := &System{
		cfg:     cfg,
		clock:   k.Clock,
		kern:    k,
		cpu:     k.CPU,
		quantum: cfg.Quantum,
		tracer:  cfg.Tracer,
		doneCh:  make(chan struct{}),
	}
	s.atoms = hw.NewAtomics(s.cpu)
	s.tcbArena = arena.New[Thread]()
	s.contArena = arena.New[Cont]()
	s.explorer = cfg.Explorer
	s.pervertArm = s.explorer == nil && (cfg.Pervert == PervertRROrdered || cfg.Pervert == PervertRandom)
	s.proc = k.NewProcess("pthreads")
	s.proc.OnTerminate = func(sig unixkern.Signal) {
		s.finish(fmt.Errorf("process terminated by %v", sig), nil)
		panic(killPanic{})
	}

	// Library initialization, as the paper describes it: install the
	// universal signal handler for all maskable UNIX signals and
	// pre-allocate the TCB/stack pool.
	for sig := unixkern.Signal(1); sig < unixkern.NSIG; sig++ {
		if sig.Maskable() {
			if err := s.proc.Sigvec(sig, s.universalHandler, 0); err != nil {
				panic(err)
			}
		}
	}
	if !cfg.DisablePool {
		for i := 0; i < cfg.PoolSize; i++ {
			s.pool = append(s.pool, poolEntry{
				tcb:   s.newPooledTCB(),
				stack: hw.NewStack(cfg.DefaultStackSize),
			})
		}
	}
	return s
}

// rng returns the scheduler's PRNG, seeded from cfg.Seed at its first
// draw. Only the random-switch perverted policy draws, so no other
// system builds the source (about 4.9 KB).
func (s *System) rng() *rand.Rand {
	if s.prng == nil {
		s.prng = rand.New(rand.NewSource(s.cfg.Seed))
	}
	return s.prng
}

// newPooledTCB carves a pool TCB from the arena.
func (s *System) newPooledTCB() *Thread {
	t := s.tcbArena.Get()
	t.sys = s
	t.pooled = true
	return t
}

// addThread appends a thread to the roster, recording its slot for the
// O(1) tombstone removal in dropThread.
func (s *System) addThread(t *Thread) {
	t.allIdx = int32(len(s.all))
	s.all = append(s.all, t)
}

// dropThread tombstones a reclaimed thread's roster slot and compacts
// the roster once tombstones outnumber live entries.
func (s *System) dropThread(t *Thread) {
	if int(t.allIdx) < len(s.all) && s.all[t.allIdx] == t {
		s.all[t.allIdx] = nil
		s.allDead++
	}
	if s.allDead > 64 && s.allDead > len(s.all)-s.allDead {
		live := 0
		for _, x := range s.all {
			if x != nil {
				x.allIdx = int32(live)
				s.all[live] = x
				live++
			}
		}
		for i := live; i < len(s.all); i++ {
			s.all[i] = nil
		}
		s.all = s.all[:live]
		s.allDead = 0
	}
}

// frames returns the thread's simulated stack, building it at the first
// push past the base frame: a thread off the creation pool holds no
// stack object until then. Readers that may run first (Inspect,
// StackFree, the pops) check t.stack for nil and derive the base-frame
// state from stackSize instead.
func (t *Thread) frames() *hw.Stack {
	if t.stack == nil {
		t.stack = hw.NewStack(t.stackSize)
	}
	return t.stack
}

// Clock exposes the virtual clock (read-only use intended).
func (s *System) Clock() *vtime.Clock { return s.clock }

// Now returns the current virtual time.
func (s *System) Now() vtime.Time { return s.clock.Now() }

// Kernel exposes the simulated UNIX kernel, for harnesses that inspect
// syscall counts or drive cross-process benchmarks.
func (s *System) Kernel() *unixkern.Kernel { return s.kern }

// Process exposes the simulated UNIX process the library lives in.
func (s *System) Process() *unixkern.Process { return s.proc }

// CPU exposes the cost-model CPU, for harness attribution reports.
func (s *System) CPU() *hw.CPU { return s.cpu }

// Stats returns a snapshot of the library counters.
func (s *System) Stats() Stats {
	st := s.stats
	qs := s.ready.Stats()
	st.ReadyMaxDepth, st.ReadyWraps, st.ReadyGrows = qs.MaxDepth, qs.Wraps, qs.Grows
	st.ReadyPicks, st.ReadyScanned = qs.Picks, qs.Scanned
	st.RunnerLive, st.RunnerPeak = s.runnerLive, s.runnerPeak
	ta, ca := s.tcbArena.Stats(), s.contArena.Stats()
	st.ArenaChunks = int64(ta.Chunks + ca.Chunks)
	st.ArenaSlotBytes = ta.SlotBytes
	return st
}

// Config returns the configuration the system was created with.
func (s *System) Config() Config { return s.cfg }

// exitPanic unwinds a thread that called Exit (or was cancelled).
type exitPanic struct {
	status any
}

// killPanic tears down a runner at system shutdown.
type killPanic struct{}

// Canceled is the status a cancelled thread exits with
// (PTHREAD_CANCELED).
var Canceled any = canceledType{}

type canceledType struct{}

func (canceledType) String() string { return "PTHREAD_CANCELED" }

// Run starts the system with an initial thread executing main and blocks
// until every thread has terminated, Shutdown is called, or a fatal
// condition (deadlock, unhandled panic, fatal signal) ends the process.
// It returns nil on clean termination.
func (s *System) Run(main func()) error {
	if s.runCalled {
		return fmt.Errorf("core: Run called twice")
	}
	s.runCalled = true

	t := s.allocTCB(Attr{
		Priority:  s.cfg.MainPriority,
		Policy:    s.cfg.MainPolicy,
		StackSize: s.cfg.DefaultStackSize,
		Name:      "main",
	})
	t.fn = func(any) any { main(); return nil }
	s.addThread(t)
	s.liveCnt++
	s.stats.ThreadsCreated++
	t.state = StateRunning
	s.current = t
	s.trace(EvState, t, "running", "")

	s.bindRunner(t)
	s.passBaton(t, nil)

	<-s.doneCh
	return s.finishErr
}

// finish ends the simulation: records the outcome, kills every runner,
// and unblocks Run. Safe to call once; later calls are ignored (first
// outcome wins). The runners are those bound to roster threads, the
// caller's own (its thread may be detached and already reclaimed, off
// the roster), and the idle ones. A parked continuation holds none.
func (s *System) finish(err error, status any) {
	if s.finished {
		return
	}
	s.finished = true
	s.finishErr = err
	s.exitStatus = status
	for _, t := range s.all {
		if t != nil && t.runner != nil {
			sendKill(t.runner)
		}
	}
	if t := s.current; t != nil && t.runner != nil {
		sendKill(t.runner)
	}
	for _, r := range s.runnerIdle {
		sendKill(r)
	}
	close(s.doneCh)
}

// ExitStatus returns the value passed to Shutdown/exit, if any.
func (s *System) ExitStatus() any { return s.exitStatus }

// Stop ends the simulation from outside thread context (e.g. a fabric
// tearing down a fleet). It records err as the outcome and kills every
// runner; threads currently blocked in a governed clock advance are
// unwound by their governor. Unlike Shutdown it returns normally and is
// a no-op once finished.
func (s *System) Stop(err error) {
	s.finish(err, nil)
}

// Shutdown terminates the whole process from thread context, like exit().
// It does not return.
func (s *System) Shutdown(status any) {
	s.finish(nil, status)
	panic(killPanic{})
}

// unwound classifies how a runner's run of thread t ended, given
// whether it ran to completion and the panic value it recovered. It
// reports true only for a clean completion. A killPanic is a system
// shutdown and ends the runner silently. A runner unwinding without
// a panic is runtime.Goexit (e.g. t.FailNow called from a thread body):
// the whole system would hang waiting for this thread, so the process
// ends with a diagnosis instead. Any other panic escaped the thread body
// and is fatal, like an unhandled fault crashing the process.
func (s *System) unwound(t *Thread, completed bool, rec any) bool {
	switch {
	case rec == nil && completed:
		return true
	case rec == nil:
		s.finish(fmt.Errorf("%v: goroutine exited prematurely (runtime.Goexit, e.g. t.Fatal in thread code)", t), nil)
	default:
		if _, kill := rec.(killPanic); !kill {
			s.finish(fmt.Errorf("panic in %v: %v", t, rec), nil)
		}
	}
	return false
}

// exitStatus converts Exit unwinding, recovered as rec, into the thread's
// exit status (exited true). Nothing recovered reports false; any other
// panic continues unwinding.
func exitStatus(rec any) (status any, exited bool) {
	if rec == nil {
		return nil, false
	}
	if ep, ok := rec.(exitPanic); ok {
		return ep.status, true
	}
	panic(rec)
}

// Exit terminates the calling thread with the given status
// (pthread_exit). Cleanup handlers run first, then thread-specific data
// destructors. It does not return.
func (s *System) Exit(status any) {
	panic(exitPanic{status: status})
}

// exitCurrent finalizes the current thread: cleanup handlers, TSD
// destructors, then kernel-side termination and a final dispatch. Runs on
// the dying thread's runner and returns to runnerStep; the final
// dispatch has released the runner by then.
func (s *System) exitCurrent(status any) {
	t := s.current

	// Cleanup handlers, LIFO, in thread context (they may use the
	// library freely). An Exit from inside a cleanup handler is
	// absorbed: the thread is already exiting.
	if c := t.cold; c != nil {
		for len(c.cleanup) > 0 {
			rec := c.cleanup[len(c.cleanup)-1]
			c.cleanup = c.cleanup[:len(c.cleanup)-1]
			s.runProtected(func() { rec.fn(rec.arg) })
		}
	}
	s.runTSDDestructors(t)

	s.enterKernel()
	s.stats.ThreadsExited++
	t.state = StateTerminated
	t.retval = status
	if t.cold != nil {
		t.cold.fakeStack = nil
	}
	t.cancelPending = false
	s.liveCnt--
	if s.tracer != nil {
		s.trace(EvState, t, "terminated", fmt.Sprintf("status=%v", status))
	}
	s.cancelSliceTimer()

	// Wake joiners, in arrival order.
	for t.joiners.head != nil {
		s.endWait(t.joiners.head, wakeJoin)
	}

	if t.detached {
		s.reclaim(t)
	}

	if s.liveCnt == 0 {
		s.finish(nil, status)
		return
	}

	// Final dispatch: the dying thread hands the processor over and
	// releases its runner.
	s.dispatcherFlag = true
	s.dispatch()
}

// runProtected runs fn, absorbing Exit unwinding (used for cleanup
// handlers and TSD destructors on an already-exiting thread).
func (s *System) runProtected(fn func()) {
	defer func() { exitStatus(recover()) }()
	fn()
}

// reclaim returns a terminated (and detached or joined) thread's memory
// to the pool. The TCB is dead afterwards: further use of the handle is a
// reference to a destroyed thread.
func (s *System) reclaim(t *Thread) {
	if t.dead {
		return
	}
	t.dead = true
	s.dropThread(t)
	if t.pooled && !s.cfg.DisablePool && t.stack != nil {
		stk := t.stack
		stk.Reset()
		s.pool = append(s.pool, poolEntry{tcb: s.newPooledTCB(), stack: stk})
	}
	// Drop every reference the dead TCB could pin: the handle itself stays
	// valid (checkThread reports ESRCH) but must not keep thread bodies,
	// sync objects, or signal payloads reachable. The runner field is left
	// alone — a detached thread is reclaimed before its final context
	// switch releases the runner.
	if t.cont != nil {
		s.contArena.Put(t.cont)
		t.cont = nil
	}
	t.stack = nil
	t.fn = nil
	t.arg = nil
	// retval survives reclaim: when several joiners wake together, the
	// first one to run reclaims the target and the rest still read the
	// exit status through their (now-dead) handle.
	t.joinTarget = nil
	t.waitingMutex = nil
	t.waitingCond = nil
	t.owned = nil
	t.cold = nil
	t.pending = nil
}

// allocTCB produces a TCB, drawing it and its stack from the pool when
// possible ("pre-allocating a pool of thread control blocks and stacks").
func (s *System) allocTCB(attr Attr) *Thread {
	var t *Thread
	var stack *hw.Stack
	size := attr.StackSize
	if size == 0 {
		size = s.cfg.DefaultStackSize
	}
	if !s.cfg.DisablePool && len(s.pool) > 0 && size == s.cfg.DefaultStackSize {
		n := len(s.pool) - 1
		t, stack = s.pool[n].tcb, s.pool[n].stack
		s.pool[n] = poolEntry{} // the slot must not pin the TCB once it dies
		s.pool = s.pool[:n]
		s.stats.PoolHits++
		s.cpu.ChargeInstr(12) // pop of the pool free list
	} else {
		// The simulated allocation is charged here; the host stack is
		// built at the thread's first frame push (frames), so a thread
		// that never takes a signal, a fake call or UseStack costs only
		// its TCB.
		s.stats.PoolMisses++
		s.cpu.ChargeHeapAlloc()
		t = s.tcbArena.Get()
		t.sys = s
	}
	s.nextID++
	t.id = s.nextID
	t.name = attr.Name
	t.basePrio = int8(attr.Priority)
	t.prio = int8(attr.Priority)
	t.policy = attr.Policy
	t.detached = attr.Detached
	t.stack = stack
	t.stackSize = size
	t.state = StateNew
	t.errno = OK
	t.sigMask = 0
	t.cancelState = CancelControlled
	// TCB field initialization cost: the measured creation path.
	s.cpu.ChargeInstr(instrTCBInit)
	return t
}

// deadlock reports that every live thread is blocked with no timer that
// could wake any of them, then ends the process. The report names each
// blocked thread and what it waits for — the library doubles as the
// debugging aid the paper positions it as.
func (s *System) deadlock() {
	s.finish(fmt.Errorf("%s", s.BlockedReport()), nil)
	panic(killPanic{})
}

// BlockedReport formats the blocked-thread diagnosis used in deadlock
// reports: one line per blocked or never-started thread naming what it
// waits for. The fabric uses it to assemble fleet-wide deadlock reports
// spanning several hosts.
func (s *System) BlockedReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock at %v: all %d live threads blocked:\n", s.clock.Now(), s.liveCnt)
	for _, t := range s.all {
		if t == nil {
			continue
		}
		if t.state == StateBlocked || t.state == StateNew {
			fmt.Fprintf(&b, "  %v: %v %s\n", t, t.BlockReason(), s.waitLabel(t))
		}
	}
	return b.String()
}
