// Package metrics is the virtual-time profiling subsystem: per-thread
// attribution of where virtual time goes, per-object latency histograms,
// and online watchdogs that flag priority inversion, long holds,
// starvation, and wait-for cycles as they happen.
//
// The paper's future-work section asks for exactly this ("information
// could be extracted from the thread control block and made available to
// the user"); the Collector is the library's answer. It is a
// core.Tracer: it attaches through Config.Tracer, beside a recorder with
// trace.Tee, and selects the events it reads by kind and typed operand.
// Besides the recorded kinds it reads the profiler-only ones (EvContend,
// EvHandlerEnter/Exit, EvFDDone, EvCondEnd), which the recorders skip.
// Events charge no virtual cost, so the profile is a pure observer of
// the run it measures.
package metrics

import (
	"fmt"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Bucket classifies where a slice of a thread's virtual time went.
type Bucket int

const (
	// BucketRun: dispatched and executing user code.
	BucketRun Bucket = iota
	// BucketHandler: executing a user signal handler via a fake call.
	BucketHandler
	// BucketReady: runnable, waiting in the ready queue.
	BucketReady
	// BucketMutex: suspended on a mutex (including the reacquisition
	// after a condition signal).
	BucketMutex
	// BucketCond: suspended in a condition wait.
	BucketCond
	// BucketFD: suspended on a per-descriptor wait queue (jacket call).
	BucketFD
	// BucketSleep: suspended in Sleep or a timed wait's timer.
	BucketSleep
	// BucketJoin: suspended joining another thread.
	BucketJoin
	// BucketOther: everything else — sigwait, suspension, raw I/O waits,
	// and the dormant time of a lazily created thread.
	BucketOther

	// NumBuckets is the attribution bucket count.
	NumBuckets
)

// String names the bucket (column headers of the profile table).
func (b Bucket) String() string {
	switch b {
	case BucketRun:
		return "run"
	case BucketHandler:
		return "handler"
	case BucketReady:
		return "ready"
	case BucketMutex:
		return "mutex-wait"
	case BucketCond:
		return "cond-wait"
	case BucketFD:
		return "fd-blocked"
	case BucketSleep:
		return "sleep"
	case BucketJoin:
		return "join"
	case BucketOther:
		return "other"
	}
	return "unknown-bucket"
}

// classify maps a scheduling state (plus block reason and handler
// nesting) to its attribution bucket.
func classify(state core.State, reason core.BlockReason, handlerDepth int) Bucket {
	switch state {
	case core.StateRunning:
		if handlerDepth > 0 {
			return BucketHandler
		}
		return BucketRun
	case core.StateReady:
		return BucketReady
	case core.StateBlocked:
		switch reason {
		case core.BlockMutex:
			return BucketMutex
		case core.BlockCond:
			return BucketCond
		case core.BlockFD:
			return BucketFD
		case core.BlockSleep:
			return BucketSleep
		case core.BlockJoin:
			return BucketJoin
		}
		return BucketOther
	}
	return BucketOther
}

// Options parameterizes the threshold-based watchdogs; the inversion
// and deadlock watchdogs need no threshold and are always on. The zero
// value disables the threshold-based ones.
type Options struct {
	// LongHold flags any mutex hold of at least this duration; 0
	// disables the watchdog.
	LongHold vtime.Duration
	// Starvation flags any ready→running dispatch latency of at least
	// this duration; 0 disables the watchdog.
	Starvation vtime.Duration
}

// Finding is one structured watchdog report, with virtual timestamps.
type Finding struct {
	// Kind is "priority-inversion", "long-hold", "starvation" or
	// "deadlock".
	Kind string `json:"kind"`
	// At and End bound the window (for deadlock, End == At: the instant
	// the cycle closed).
	At  vtime.Time `json:"at_ns"`
	End vtime.Time `json:"end_ns"`
	// Thread is the victim (inversion, starvation, deadlock) or holder
	// (long-hold).
	Thread string `json:"thread"`
	// Object names the mutex involved, if any.
	Object string `json:"object,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail"`
}

// String renders the finding for reports.
func (f Finding) String() string {
	obj := ""
	if f.Object != "" {
		obj = " [" + f.Object + "]"
	}
	return fmt.Sprintf("%-18s %v..%v %s%s: %s", f.Kind, f.At, f.End, f.Thread, obj, f.Detail)
}

// ThreadProfile accumulates one thread's attribution. Fields are final
// after Finalize.
type ThreadProfile struct {
	T          *core.Thread
	ID         int32
	Name       string
	FirstAt    vtime.Time // virtual time of the first event seen
	LastAt     vtime.Time // virtual time charged through
	Ended      bool       // terminated (or finalized)
	Buckets    [NumBuckets]vtime.Duration
	Dispatches int64

	bucket       Bucket
	handlerDepth int
	readyAt      vtime.Time
	readyValid   bool
	condOpen     *CondProfile
	condSince    vtime.Time
}

// charge attributes the time since LastAt to the current bucket.
func (p *ThreadProfile) charge(at vtime.Time) {
	if p.Ended {
		return
	}
	if d := at.Sub(p.LastAt); d > 0 {
		p.Buckets[p.bucket] += d
	}
	p.LastAt = at
}

// Lifetime is the span from the thread's first event to the last charged
// instant.
func (p *ThreadProfile) Lifetime() vtime.Duration { return p.LastAt.Sub(p.FirstAt) }

// Total sums the attribution buckets. The accounting invariant — checked
// by ptprof -check — is Total() == Lifetime() for every thread: 100% of
// each thread's virtual time lands in exactly one bucket.
func (p *ThreadProfile) Total() vtime.Duration {
	var t vtime.Duration
	for _, d := range p.Buckets {
		t += d
	}
	return t
}

// MutexProfile accumulates one mutex's contention and latency data.
type MutexProfile struct {
	M            *core.Mutex
	Name         string
	Seq          int // first-touch order, to disambiguate shared names
	Acquisitions int64
	Contentions  int64
	// Wait measures contention→ownership (the grant), per suspended
	// waiter. Hold measures acquisition→release, per owner.
	Wait Histogram
	Hold Histogram
	// OwnerAtContention counts, per holder name, how many contentions
	// that thread was the owner for — the "who blocks whom" attribution.
	OwnerAtContention map[string]int64

	// holds maps each current owner to its acquisition time. Keyed per
	// thread because at a handoff the kernel grants to the next owner
	// before the releaser's hook fires, so two entries briefly coexist.
	holds map[*core.Thread]vtime.Time
}

// Label renders the mutex's display name, disambiguated by sequence when
// several mutexes share one name.
func (p *MutexProfile) Label() string { return p.Name }

// CondProfile accumulates one condition variable's wait data.
type CondProfile struct {
	C     *core.Cond
	Name  string
	Seq   int
	Waits int64
	Wait  Histogram
}

// FDProfile accumulates one (descriptor, direction) queue's block data.
type FDProfile struct {
	FD     int
	Dir    core.FDDir
	Blocks int64
	Block  Histogram
}

// Label renders "fdN/dir".
func (p *FDProfile) Label() string { return fmt.Sprintf("fd%d/%s", p.FD, p.Dir) }

type fdID struct {
	fd  int
	dir core.FDDir
}

// openWait is one contended mutex wait in progress, the inversion
// watchdog's working set.
type openWait struct {
	t           *core.Thread
	tp          *ThreadProfile
	m           *core.Mutex
	mp          *MutexProfile
	since       vtime.Time
	windowOpen  bool
	windowStart vtime.Time
	runner      string // first lower-priority thread seen running
}

// Collector implements core.Tracer. Create with New, attach via
// Config.Tracer (or a trace.Tee), run the workload, then call Finalize
// (or Snapshot) and read the profiles. Not safe for use across Systems.
type Collector struct {
	opt Options

	threads     map[*core.Thread]*ThreadProfile
	threadOrder []*ThreadProfile
	mutexes     map[*core.Mutex]*MutexProfile
	mutexOrder  []*MutexProfile
	conds       map[*core.Cond]*CondProfile
	condOrder   []*CondProfile
	fds         map[fdID]*FDProfile
	fdOrder     []*FDProfile

	// Dispatch is the global ready→running latency histogram.
	Dispatch Histogram

	openWaits []openWait
	findings  []Finding
	finalized bool
}

// New returns an empty collector.
func New(opt Options) *Collector {
	return &Collector{
		opt:     opt,
		threads: make(map[*core.Thread]*ThreadProfile),
		mutexes: make(map[*core.Mutex]*MutexProfile),
		conds:   make(map[*core.Cond]*CondProfile),
		fds:     make(map[fdID]*FDProfile),
	}
}

// threadLabel names a thread like the tracer does.
func threadLabel(t *core.Thread) string {
	if n := t.Name(); n != "" {
		return n
	}
	return fmt.Sprintf("thread#%d", t.ID())
}

// prof returns (creating on first touch) the thread's profile. The map
// is keyed by TCB pointer; the pool hands out a fresh TCB per thread
// life, so pointers are unique per life and never aliased.
func (c *Collector) prof(t *core.Thread, at vtime.Time) *ThreadProfile {
	p := c.threads[t]
	if p == nil {
		p = &ThreadProfile{T: t, ID: int32(t.ID()), Name: threadLabel(t), FirstAt: at, LastAt: at, bucket: BucketOther}
		c.threads[t] = p
		c.threadOrder = append(c.threadOrder, p)
	}
	return p
}

func (c *Collector) mprof(m *core.Mutex) *MutexProfile {
	p := c.mutexes[m]
	if p == nil {
		p = &MutexProfile{M: m, Name: m.Name(), Seq: len(c.mutexOrder),
			OwnerAtContention: make(map[string]int64), holds: make(map[*core.Thread]vtime.Time)}
		c.mutexes[m] = p
		c.mutexOrder = append(c.mutexOrder, p)
	}
	return p
}

func (c *Collector) cprof(cv *core.Cond) *CondProfile {
	p := c.conds[cv]
	if p == nil {
		p = &CondProfile{C: cv, Name: cv.Name(), Seq: len(c.condOrder)}
		c.conds[cv] = p
		c.condOrder = append(c.condOrder, p)
	}
	return p
}

func (c *Collector) fprof(fd int, dir core.FDDir) *FDProfile {
	k := fdID{fd: fd, dir: dir}
	p := c.fds[k]
	if p == nil {
		p = &FDProfile{FD: fd, Dir: dir}
		c.fds[k] = p
		c.fdOrder = append(c.fdOrder, p)
	}
	return p
}

// Event implements core.Tracer: it dispatches the events the profile
// reads by kind and typed operand, and ignores the rest.
func (c *Collector) Event(ev core.TraceEvent) {
	switch ev.Kind {
	case core.EvState:
		// A thread readied at creation opens its profile at its ready
		// event: makeReady charges virtual time after "created".
		if ev.Thread.State() != core.StateNew || ev.Thread.Lazy() {
			c.threadState(ev.At, ev.Thread)
		}
	case core.EvMutex:
		switch ev.Op {
		case core.OpLock:
			c.mutexAcquired(ev.At, ev.Thread, ev.Mutex, false)
		case core.OpGrant:
			c.mutexAcquired(ev.At, ev.Thread, ev.Mutex, true)
		case core.OpUnlock:
			c.mutexReleased(ev.At, ev.Thread, ev.Mutex)
		case core.OpRequeue:
			// The waiter's block reason turned from cond to mutex.
			c.mutexContended(ev.At, ev.Thread, ev.Mutex, ev.Peer)
			c.threadState(ev.At, ev.Thread)
		}
	case core.EvContend:
		c.mutexContended(ev.At, ev.Thread, ev.Mutex, ev.Peer)
	case core.EvCond:
		switch ev.Op {
		case core.OpWait:
			c.condWaitStart(ev.At, ev.Thread, ev.Cond)
		case core.OpSignal:
			c.condWaitEnd(ev.At, ev.Thread)
		}
	case core.EvCondEnd:
		c.condWaitEnd(ev.At, ev.Thread)
	case core.EvHandlerEnter:
		c.handlerEnter(ev.At, ev.Thread)
	case core.EvHandlerExit:
		c.handlerExit(ev.At, ev.Thread)
	case core.EvFDDone:
		fp := c.fprof(int(ev.FD), ev.Dir)
		fp.Blocks++
		fp.Block.Record(ev.Wait)
	}
}

// threadState charges t's time through at to its old bucket and moves
// it to the bucket of its (already updated) state.
func (c *Collector) threadState(at vtime.Time, t *core.Thread) {
	state := t.State()
	p := c.prof(t, at)
	p.charge(at)
	switch state {
	case core.StateRunning:
		p.Dispatches++
		if p.readyValid {
			d := at.Sub(p.readyAt)
			c.Dispatch.Record(d)
			if c.opt.Starvation > 0 && d >= c.opt.Starvation {
				c.findings = append(c.findings, Finding{
					Kind: "starvation", At: p.readyAt, End: at, Thread: p.Name,
					Detail: fmt.Sprintf("waited %v in the ready queue before dispatch", d),
				})
			}
			p.readyValid = false
		}
		c.scanInversion(at, t)
	case core.StateReady:
		p.readyAt = at
		p.readyValid = true
	default:
		p.readyValid = false
	}
	if state == core.StateTerminated {
		p.Ended = true
		p.handlerDepth = 0
	}
	p.bucket = classify(state, t.BlockReason(), p.handlerDepth)
}

// scanInversion is the live Figure 5 detector: at every dispatch it
// checks whether some blocked thread of strictly higher priority is
// waiting on a mutex the dispatched thread does not own — the definition
// of priority inversion. Under inheritance or ceiling the owner runs
// boosted to (at least) the waiter's priority, so the scan stays silent;
// with no protocol a medium-priority thread dispatched during the wait
// opens a window that closes when the waiter finally gets the grant.
func (c *Collector) scanInversion(at vtime.Time, runner *core.Thread) {
	var rp int
	loaded := false
	for i := range c.openWaits {
		w := &c.openWaits[i]
		if w.windowOpen || w.t == runner || w.m.Owner() == runner {
			continue
		}
		if !loaded {
			rp = runner.Priority()
			loaded = true
		}
		if w.t.Priority() > rp {
			w.windowOpen = true
			w.windowStart = at
			w.runner = threadLabel(runner)
		}
	}
}

func (c *Collector) handlerEnter(at vtime.Time, t *core.Thread) {
	p := c.prof(t, at)
	p.charge(at)
	p.handlerDepth++
	p.bucket = BucketHandler
}

func (c *Collector) handlerExit(at vtime.Time, t *core.Thread) {
	p := c.prof(t, at)
	p.charge(at)
	if p.handlerDepth > 0 {
		p.handlerDepth--
	}
	if p.handlerDepth > 0 {
		p.bucket = BucketHandler
	} else {
		p.bucket = BucketRun
	}
}

func (c *Collector) mutexContended(at vtime.Time, t *core.Thread, m *core.Mutex, owner *core.Thread) {
	mp := c.mprof(m)
	mp.Contentions++
	if owner != nil {
		mp.OwnerAtContention[threadLabel(owner)]++
	}
	c.openWaits = append(c.openWaits, openWait{t: t, tp: c.prof(t, at), m: m, mp: mp, since: at})
	c.checkDeadlock(at, t, m)
}

// waitMutexOf returns the mutex the thread is (openly) waiting for.
func (c *Collector) waitMutexOf(t *core.Thread) *core.Mutex {
	for i := range c.openWaits {
		if c.openWaits[i].t == t {
			return c.openWaits[i].m
		}
	}
	return nil
}

// checkDeadlock walks the wait-for graph from the contention that just
// opened: t waits for m, whose owner may itself be waiting, and so on. A
// walk that returns to t is a cycle — reported the instant it closes,
// generalizing the dining-philosophers case (the core's own deadlock
// report only fires later, when every live thread is blocked).
func (c *Collector) checkDeadlock(at vtime.Time, t *core.Thread, m *core.Mutex) {
	cur := m
	for hops := 0; cur != nil && hops <= len(c.openWaits); hops++ {
		o := cur.Owner()
		if o == nil {
			return
		}
		if o == t {
			// Cycle closed: rebuild the chain for the report.
			detail := threadLabel(t)
			cm := m
			for cm != nil {
				owner := cm.Owner()
				detail += fmt.Sprintf(" -> %s(held by %s)", cm.Name(), threadLabel(owner))
				if owner == t {
					break
				}
				cm = c.waitMutexOf(owner)
			}
			c.findings = append(c.findings, Finding{
				Kind: "deadlock", At: at, End: at, Thread: threadLabel(t), Object: m.Name(),
				Detail: "wait-for cycle: " + detail,
			})
			return
		}
		cur = c.waitMutexOf(o)
	}
}

func (c *Collector) mutexAcquired(at vtime.Time, t *core.Thread, m *core.Mutex, contended bool) {
	mp := c.mprof(m)
	mp.Acquisitions++
	if contended {
		for i := range c.openWaits {
			w := &c.openWaits[i]
			if w.t != t || w.m != m {
				continue
			}
			mp.Wait.Record(at.Sub(w.since))
			if w.windowOpen {
				c.findings = append(c.findings, Finding{
					Kind: "priority-inversion", At: w.windowStart, End: at,
					Thread: w.tp.Name, Object: mp.Name,
					Detail: fmt.Sprintf("%s ran while %s waited for %s (window %v)",
						w.runner, w.tp.Name, mp.Name, at.Sub(w.windowStart)),
				})
			}
			last := len(c.openWaits) - 1
			c.openWaits[i] = c.openWaits[last]
			c.openWaits = c.openWaits[:last]
			break
		}
	}
	mp.holds[t] = at
}

func (c *Collector) mutexReleased(at vtime.Time, t *core.Thread, m *core.Mutex) {
	mp := c.mprof(m)
	since, ok := mp.holds[t]
	if !ok {
		return
	}
	delete(mp.holds, t)
	d := at.Sub(since)
	mp.Hold.Record(d)
	if c.opt.LongHold > 0 && d >= c.opt.LongHold {
		c.findings = append(c.findings, Finding{
			Kind: "long-hold", At: since, End: at, Thread: threadLabel(t), Object: mp.Name,
			Detail: fmt.Sprintf("held for %v", d),
		})
	}
}

func (c *Collector) condWaitStart(at vtime.Time, t *core.Thread, cv *core.Cond) {
	cp := c.cprof(cv)
	cp.Waits++
	p := c.prof(t, at)
	p.condOpen = cp
	p.condSince = at
}

func (c *Collector) condWaitEnd(at vtime.Time, t *core.Thread) {
	p := c.prof(t, at)
	if p.condOpen == nil {
		return
	}
	p.condOpen.Wait.Record(at.Sub(p.condSince))
	p.condOpen = nil
}

// Finalize closes the books at the end of a run: every live thread's
// open interval is charged through end, and inversion windows still open
// (the waiter never got the mutex — e.g. the run deadlocked) are
// reported as unresolved. Idempotent.
func (c *Collector) Finalize(end vtime.Time) {
	if c.finalized {
		return
	}
	c.finalized = true
	for _, p := range c.threadOrder {
		if !p.Ended {
			p.charge(end)
			p.Ended = true
		}
	}
	for i := range c.openWaits {
		w := &c.openWaits[i]
		if w.windowOpen {
			c.findings = append(c.findings, Finding{
				Kind: "priority-inversion", At: w.windowStart, End: end,
				Thread: w.tp.Name, Object: w.mp.Name,
				Detail: fmt.Sprintf("%s ran while %s waited for %s (unresolved at end of run)",
					w.runner, w.tp.Name, w.mp.Name),
			})
		}
	}
}

// Findings returns the watchdog reports in detection order.
func (c *Collector) Findings() []Finding { return c.findings }

// Threads returns the per-thread profiles in first-seen order.
func (c *Collector) Threads() []*ThreadProfile { return c.threadOrder }

// Mutexes returns the per-mutex profiles in first-touch order.
func (c *Collector) Mutexes() []*MutexProfile { return c.mutexOrder }

// Conds returns the per-condvar profiles in first-touch order.
func (c *Collector) Conds() []*CondProfile { return c.condOrder }

// FDs returns the per-descriptor profiles in first-touch order.
func (c *Collector) FDs() []*FDProfile { return c.fdOrder }

// MutexByName returns the first mutex profile with the given name (tests
// and assertions), or nil.
func (c *Collector) MutexByName(name string) *MutexProfile {
	for _, mp := range c.mutexOrder {
		if mp.Name == name {
			return mp
		}
	}
	return nil
}

// FindingsOfKind filters the findings.
func (c *Collector) FindingsOfKind(kind string) []Finding {
	var out []Finding
	for _, f := range c.findings {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}
