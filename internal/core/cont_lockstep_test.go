package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pthreads/internal/lockeng"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Lockstep tests: every scenario runs twice — once with goroutine-backed
// threads (Create) and once with parked continuations (CreateCont) — and
// the two runs must produce byte-identical traces, the same final virtual
// clock, the same counters, and the same values returned by every
// blocking operation. This pins the invariant that the continuation
// representation is purely host-side: it may not perturb a single
// virtual charge, trace event, scheduling decision, or result.
//
// The scenarios are tables of arcs, one table per operation: an arc is
// one path through the operation (a wakeup cause, an error return, a
// cancellation), and a new arc is one more row.

// lockstepTracer records a compact rendering of every trace event, and
// checks the wait lists against the block reasons (checkWaitLists) and
// the rest of the kernel state (checkKernel) at every state change,
// reporting the first violation of a run.
type lockstepTracer struct {
	lines []string
	t     *testing.T
	s     *System
	bad   bool
}

func (tr *lockstepTracer) Event(ev TraceEvent) {
	name := ""
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	tr.lines = append(tr.lines, fmt.Sprintf("%v %v %s %s %s %s",
		ev.At, ev.Kind, name, ev.Obj, ev.Arg, ev.Detail))
	if ev.Kind == EvState && !tr.bad {
		err := checkWaitLists(tr.s)
		if err == nil {
			err = checkKernel(tr.s)
		}
		if err != nil {
			tr.bad = true
			tr.t.Errorf("kernel state inconsistent at event %d (%s): %v", len(tr.lines)-1, tr.lines[len(tr.lines)-1], err)
		}
	}
}

// lockstepBody is one representation of a scenario. It reports the
// values its operations returned through rec, in the order they return.
type lockstepBody func(s *System, rec func(v ...any))

// lockstepRun executes main under a tracer and returns the trace, the
// final clock, the stats with the representation-specific (host-side)
// fields zeroed, and the recorded results.
func lockstepRun(t *testing.T, main lockstepBody) ([]string, vtime.Time, Stats, []string) {
	t.Helper()
	tr := &lockstepTracer{t: t}
	var results []string
	rec := func(v ...any) { results = append(results, strings.TrimSuffix(fmt.Sprintln(v...), "\n")) }
	s := New(Config{Tracer: tr})
	tr.s = s
	if err := s.Run(func() { main(s, rec) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	st.ContThreads, st.ContParked, st.RunnerBinds = 0, 0, 0
	st.BatonSends, st.RunnerTrampolines = 0, 0
	st.RunnerLive, st.RunnerPeak = 0, 0
	st.ArenaChunks, st.ArenaSlotBytes = 0, 0
	return tr.lines, s.Now(), st, results
}

// lockstep runs the goroutine and continuation variants and diffs them.
// It returns the goroutine variant's results, joined by "; ".
func lockstep(t *testing.T, goroutine, cont lockstepBody) string {
	t.Helper()
	gl, gt, gs, gr := lockstepRun(t, goroutine)
	cl, ct, cs, cr := lockstepRun(t, cont)
	if gt != ct {
		t.Errorf("final clock diverged: goroutine %v, cont %v", gt, ct)
	}
	if gs != cs {
		t.Errorf("stats diverged:\ngoroutine %+v\ncont      %+v", gs, cs)
	}
	g, c := strings.Join(gr, "; "), strings.Join(cr, "; ")
	if g != c {
		t.Errorf("results diverged:\ngoroutine %q\ncont      %q", g, c)
	}
	n := len(gl)
	if len(cl) != n {
		t.Errorf("trace length diverged: goroutine %d, cont %d", n, len(cl))
		if len(cl) < n {
			n = len(cl)
		}
	}
	for i := 0; i < n; i++ {
		if gl[i] != cl[i] {
			t.Fatalf("trace diverged at event %d:\ngoroutine %q\ncont      %q", i, gl[i], cl[i])
		}
	}
	if t.Failed() {
		for i := n; i < len(gl); i++ {
			t.Logf("goroutine extra: %q", gl[i])
		}
		for i := n; i < len(cl); i++ {
			t.Logf("cont extra: %q", cl[i])
		}
	}
	return g
}

// lockstepArc is one row: a scenario in both representations and the
// results the goroutine variant must return (the continuation variant
// must match it).
type lockstepArc struct {
	name            string
	want            string
	goroutine, cont lockstepBody
}

func lockstepArcs(t *testing.T, arcs []lockstepArc) {
	for _, a := range arcs {
		t.Run(a.name, func(t *testing.T) {
			if got := lockstep(t, a.goroutine, a.cont); got != a.want {
				t.Errorf("results = %q, want %q", got, a.want)
			}
		})
	}
}

func lockstepAttr(s *System, name string, dprio int) Attr {
	attr := DefaultAttr()
	attr.Name = name
	attr.Priority = s.Self().Priority() + dprio
	return attr
}

// spawn creates a goroutine thread running body.
func spawn(s *System, attr Attr, body func() any) *Thread {
	th, err := s.Create(attr, func(any) any { return body() }, nil)
	if err != nil {
		panic(err)
	}
	return th
}

// spawnCont creates a continuation thread whose first step is step.
func spawnCont(s *System, attr Attr, step ContFunc) *Thread {
	th, err := s.CreateCont(attr, step, nil)
	if err != nil {
		panic(err)
	}
	return th
}

// joinRec joins th and records what the join returned.
func joinRec(s *System, rec func(...any), th *Thread) {
	v, err := s.Join(th)
	rec(v, err)
}

// usr1 installs a SIGUSR1 handler that records that it ran.
func usr1(s *System, rec func(...any)) {
	s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
		rec("handler")
	}, 0)
}

func TestLockstepSleep(t *testing.T) {
	lockstepArcs(t, []lockstepArc{{
		name: "timer",
		want: "0.00µs; done <nil>",
		goroutine: func(s *System, rec func(...any)) {
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec(s.Sleep(5 * vtime.Millisecond))
				return "done"
			})
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(5*vtime.Millisecond, func(k *Cont) { rec(k.Rem); k.SetRet("done") })
			})
			joinRec(s, rec, th)
		},
	}, {
		// A handled signal ends the sleep early: the handler runs
		// first, then Sleep returns the time left.
		name: "interrupted",
		want: "handler; 48.89ms; <nil> <nil>",
		goroutine: func(s *System, rec func(...any)) {
			usr1(s, rec)
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec(s.Sleep(50 * vtime.Millisecond))
				return nil
			})
			s.Compute(vtime.Millisecond)
			s.Kill(th, unixkern.SIGUSR1)
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			usr1(s, rec)
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(50*vtime.Millisecond, func(k *Cont) { rec(k.Rem) })
			})
			s.Compute(vtime.Millisecond)
			s.Kill(th, unixkern.SIGUSR1)
			joinRec(s, rec, th)
		},
	}, {
		name: "nonpositive",
		want: "0.00µs; 0.00µs; <nil> <nil>",
		goroutine: func(s *System, rec func(...any)) {
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec(s.Sleep(0))
				rec(s.Sleep(-vtime.Millisecond))
				return nil
			})
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(0, func(k *Cont) {
					rec(k.Rem)
					k.Sleep(-vtime.Millisecond, func(k *Cont) { rec(k.Rem) })
				})
			})
			joinRec(s, rec, th)
		},
	}})
}

func TestLockstepYield(t *testing.T) {
	body := func(s *System) { // goroutine variant shared by both yielders
		for i := 0; i < 3; i++ {
			s.Yield()
		}
	}
	// yielder is the continuation variant: each thread counts its yields
	// in its own closure.
	yielder := func() ContFunc {
		n := 0
		var step ContFunc
		step = func(k *Cont) {
			if n >= 3 {
				return
			}
			n++
			k.Yield(step)
		}
		return step
	}
	lockstepArcs(t, []lockstepArc{{
		name: "pair",
		want: "<nil> <nil>; <nil> <nil>",
		goroutine: func(s *System, rec func(...any)) {
			a := spawn(s, lockstepAttr(s, "a", 1), func() any { body(s); return nil })
			b := spawn(s, lockstepAttr(s, "b", 1), func() any { body(s); return nil })
			joinRec(s, rec, a)
			joinRec(s, rec, b)
		},
		cont: func(s *System, rec func(...any)) {
			a := spawnCont(s, lockstepAttr(s, "a", 1), yielder())
			b := spawnCont(s, lockstepAttr(s, "b", 1), yielder())
			joinRec(s, rec, a)
			joinRec(s, rec, b)
		},
	}})
}

// lockContended is the contended-lock scenario over a mutex built by
// mk: main holds it while a higher-priority worker blocks on it, then
// releases it.
func lockContended(mk func(s *System) *Mutex, cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := mk(s)
		m.Lock()
		var th *Thread
		if cont {
			th = spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) { rec(k.Err); m.Unlock() })
			})
		} else {
			th = spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec(m.Lock())
				m.Unlock()
				return nil
			})
		}
		rec(s.Self().Priority()) // boosted under inheritance
		s.Compute(vtime.Millisecond)
		m.Unlock()
		joinRec(s, rec, th)
	}
}

// lockSpun is the engine-mutex scenario: engine mutexes spin with
// yields instead of suspending, so the worker runs at main's priority
// and main yields to let it spin.
func lockSpun(cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := s.MustMutex(MutexAttr{Name: "m", Engine: lockeng.KindTAS})
		m.Lock()
		var th *Thread
		if cont {
			th = spawnCont(s, lockstepAttr(s, "w", 0), func(k *Cont) {
				k.Lock(m, func(k *Cont) { rec(k.Err); m.Unlock() })
			})
		} else {
			th = spawn(s, lockstepAttr(s, "w", 0), func() any {
				rec(m.Lock())
				m.Unlock()
				return nil
			})
		}
		s.Yield()
		m.Unlock()
		joinRec(s, rec, th)
	}
}

// lockWakePoll: a higher-priority sleeper's timer comes due inside the
// dispatch that resumes the lock waiter. The resumed side's kernel-exit
// poll delivers it, and the sleeper preempts the waiter. The 1140 µs
// sleep lands in the middle of that 42 µs dispatch.
func lockWakePoll(cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		x := spawn(s, lockstepAttr(s, "x", 2), func() any {
			rec("x", s.Sleep(1140*vtime.Microsecond))
			return nil
		})
		m.Lock()
		var th *Thread
		if cont {
			th = spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) { rec("w", k.Err); m.Unlock() })
			})
		} else {
			th = spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec("w", m.Lock())
				m.Unlock()
				return nil
			})
		}
		s.Compute(vtime.Millisecond)
		m.Unlock()
		joinRec(s, rec, th)
		joinRec(s, rec, x)
	}
}

func TestLockstepMutexContention(t *testing.T) {
	plain := func(s *System) *Mutex { return s.MustMutex(MutexAttr{Name: "m"}) }
	inherit := func(s *System) *Mutex {
		return s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolInherit})
	}
	lockstepArcs(t, []lockstepArc{
		{"plain", "16; <nil>; <nil> <nil>", lockContended(plain, false), lockContended(plain, true)},
		{"inherit", "17; <nil>; <nil> <nil>", lockContended(inherit, false), lockContended(inherit, true)},
		{"engine", "<nil>; <nil> <nil>", lockSpun(false), lockSpun(true)},
		{"timer-in-wake", "x 0.00µs; w <nil>; <nil> <nil>; <nil> <nil>", lockWakePoll(false), lockWakePoll(true)},
	})
}

func TestLockstepLockErrors(t *testing.T) {
	lockstepArcs(t, []lockstepArc{{
		name: "relock",
		want: "EDEADLK EDEADLK; <nil> <nil>",
		goroutine: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				m.Lock()
				rec(m.Lock(), s.Errno())
				m.Unlock()
				return nil
			})
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.Lock(m, func(k *Cont) { rec(k.Err, s.Errno()); m.Unlock() })
				})
			})
			joinRec(s, rec, th)
		},
	}, {
		name: "ceiling",
		want: "EINVAL EINVAL; <nil> <nil>",
		goroutine: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolCeiling, Ceiling: s.Self().Priority()})
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				rec(m.Lock(), s.Errno())
				return nil
			})
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolCeiling, Ceiling: s.Self().Priority()})
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) { rec(k.Err, s.Errno()) })
			})
			joinRec(s, rec, th)
		},
	}})
}

// untimed marks a condWaiter wait as Wait rather than TimedWait.
const untimed = vtime.Duration(-1 << 62)

// condWaiter is a worker that locks m, waits on c once (TimedWait(d)
// unless d is untimed), records the wait's result, and unlocks.
func condWaiter(s *System, rec func(...any), name string, c *Cond, m *Mutex, d vtime.Duration, cont bool) *Thread {
	attr := lockstepAttr(s, name, 1)
	if cont {
		return spawnCont(s, attr, func(k *Cont) {
			k.Lock(m, func(k *Cont) {
				then := func(k *Cont) { rec(k.Err); m.Unlock() }
				if d != untimed {
					k.CondTimedWait(c, m, d, then)
				} else {
					k.CondWait(c, m, then)
				}
			})
		})
	}
	return spawn(s, attr, func() any {
		m.Lock()
		if d != untimed {
			rec(c.TimedWait(m, d))
		} else {
			rec(c.Wait(m))
		}
		m.Unlock()
		return nil
	})
}

// condSignaled: waiters block on c, then main wakes them while holding
// the mutex (so each is requeued on it) and releases it.
func condSignaled(waiters int, broadcast bool, cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		var ths []*Thread
		for i := 0; i < waiters; i++ {
			ths = append(ths, condWaiter(s, rec, fmt.Sprint("w", i), c, m, untimed, cont))
		}
		m.Lock()
		if broadcast {
			c.Broadcast()
		} else {
			c.Signal()
		}
		m.Unlock()
		for _, th := range ths {
			joinRec(s, rec, th)
		}
	}
}

// condInterrupted: a handled signal ends the wait (a spurious wakeup).
// Main holds the mutex at the kill, so the fake-call wrapper's
// reacquisition blocks inline before the handler runs.
func condInterrupted(cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		usr1(s, rec)
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		th := condWaiter(s, rec, "w", c, m, untimed, cont)
		m.Lock()
		s.Kill(th, unixkern.SIGUSR1)
		s.Compute(vtime.Millisecond)
		m.Unlock()
		joinRec(s, rec, th)
	}
}

func TestLockstepCondSignal(t *testing.T) {
	lockstepArcs(t, []lockstepArc{
		{"signal", "<nil>; <nil> <nil>", condSignaled(1, false, false), condSignaled(1, false, true)},
		{"broadcast-requeue", "<nil>; <nil>; <nil> <nil>; <nil> <nil>",
			condSignaled(2, true, false), condSignaled(2, true, true)},
		{"interrupted", "handler; <nil>; <nil> <nil>", condInterrupted(false), condInterrupted(true)},
	})
}

// condTimed: a lone waiter's timed wait with timeout d.
func condTimed(d vtime.Duration, cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		joinRec(s, rec, condWaiter(s, rec, "w", c, m, d, cont))
	}
}

func TestLockstepCondTimeout(t *testing.T) {
	lockstepArcs(t, []lockstepArc{
		{"expired", "ETIMEDOUT; <nil> <nil>", condTimed(2*vtime.Millisecond, false), condTimed(2*vtime.Millisecond, true)},
		{"negative", "EINVAL; <nil> <nil>", condTimed(-2*vtime.Millisecond, false), condTimed(-2*vtime.Millisecond, true)},
	})
}

// condMisuse: a worker waits on c with a mutex from mk, locked first
// if lock is set. With associate, a goroutine waiter has tied c to
// another mutex beforehand; main signals it once the worker is done.
func condMisuse(mk func(s *System) *Mutex, lock, associate, cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		m := mk(s)
		c := s.NewCond("c")
		var first *Thread
		if associate {
			first = condWaiter(s, rec, "first", c, s.MustMutex(MutexAttr{Name: "other"}), untimed, false)
		}
		attr := lockstepAttr(s, "w", 1)
		var th *Thread
		if cont {
			th = spawnCont(s, attr, func(k *Cont) {
				wait := func(k *Cont) {
					k.CondWait(c, m, func(k *Cont) {
						rec(k.Err, s.Errno())
						if lock {
							m.Unlock()
						}
					})
				}
				if lock {
					k.Lock(m, wait)
				} else {
					wait(k)
				}
			})
		} else {
			th = spawn(s, attr, func() any {
				if lock {
					m.Lock()
				}
				rec(c.Wait(m), s.Errno())
				if lock {
					m.Unlock()
				}
				return nil
			})
		}
		joinRec(s, rec, th)
		if associate {
			c.Signal()
			joinRec(s, rec, first)
		}
	}
}

func TestLockstepCondErrors(t *testing.T) {
	plain := func(s *System) *Mutex { return s.MustMutex(MutexAttr{Name: "m"}) }
	engine := func(s *System) *Mutex { return s.MustMutex(MutexAttr{Name: "m", Engine: lockeng.KindTAS}) }
	lockstepArcs(t, []lockstepArc{
		{"not-owner", "EPERM EPERM; <nil> <nil>", condMisuse(plain, false, false, false), condMisuse(plain, false, false, true)},
		{"second-mutex", "EINVAL EINVAL; <nil> <nil>; <nil>; <nil> <nil>",
			condMisuse(plain, true, true, false), condMisuse(plain, true, true, true)},
		{"engine-mutex", "EINVAL EINVAL; <nil> <nil>", condMisuse(engine, true, false, false), condMisuse(engine, true, false, true)},
	})
}

// joinCase is one join scenario: main creates a target one priority
// level below it (sleeping 1 ms, then exiting with 42) and a joiner one
// level above it that joins the target `joins` times.
type joinCase struct {
	lazy, detached bool // target attributes
	settle         bool // main sleeps until the target has exited first
	cancel         bool // main cancels the joiner while it waits
	joins          int
}

func (jc joinCase) body(cont bool) lockstepBody {
	return func(s *System, rec func(...any)) {
		attr := lockstepAttr(s, "target", -1)
		attr.Lazy, attr.Detached = jc.lazy, jc.detached
		target := spawn(s, attr, func() any { s.Sleep(vtime.Millisecond); return 42 })
		if jc.settle {
			s.Sleep(2 * vtime.Millisecond)
		}
		attr = lockstepAttr(s, "joiner", 1)
		var th *Thread
		if cont {
			var step ContFunc
			n := 0
			step = func(k *Cont) {
				if n > 0 {
					rec(k.Val, k.Err)
				}
				if n++; n <= jc.joins {
					k.Join(target, step)
				}
			}
			th = spawnCont(s, attr, step)
		} else {
			th = spawn(s, attr, func() any {
				for i := 0; i < jc.joins; i++ {
					rec(s.Join(target))
				}
				return nil
			})
		}
		if jc.cancel {
			s.Cancel(th)
		}
		joinRec(s, rec, th)
	}
}

// joinArc is a row of join scenarios: a lockstepArc built from a
// joinCase.
type joinArc struct {
	name, want string
	jc         joinCase
}

func joinArcs(t *testing.T, arcs []joinArc) {
	var rows []lockstepArc
	for _, a := range arcs {
		rows = append(rows, lockstepArc{a.name, a.want, a.jc.body(false), a.jc.body(true)})
	}
	lockstepArcs(t, rows)
}

func TestLockstepJoinChain(t *testing.T) {
	joinArcs(t, []joinArc{
		{"blocked", "42 <nil>; <nil> <nil>", joinCase{joins: 1}},
		{"terminated", "42 <nil>; <nil> <nil>", joinCase{settle: true, joins: 1}},
		// A lazily created target is activated by the join.
		{"lazy", "42 <nil>; <nil> <nil>", joinCase{lazy: true, joins: 1}},
		{"cancelled", "PTHREAD_CANCELED <nil>", joinCase{cancel: true, joins: 1}},
	})
}

func TestLockstepJoinErrors(t *testing.T) {
	self := func(cont bool) lockstepBody {
		return func(s *System, rec func(...any)) {
			var th *Thread
			if cont {
				th = spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
					k.Join(k.Self(), func(k *Cont) { rec(k.Val, k.Err, s.Errno()) })
				})
			} else {
				th = spawn(s, lockstepAttr(s, "w", 1), func() any {
					v, err := s.Join(s.Self())
					rec(v, err, s.Errno())
					return nil
				})
			}
			joinRec(s, rec, th)
		}
	}
	lockstepArcs(t, []lockstepArc{{"self", "<nil> EDEADLK EDEADLK; <nil> <nil>", self(false), self(true)}})
	joinArcs(t, []joinArc{
		{"detached", "<nil> EINVAL; <nil> <nil>", joinCase{detached: true, joins: 1}},
		// The first join reclaims the target; the second sees a
		// reclaimed handle and must not report the first's status.
		{"reclaimed", "42 <nil>; <nil> ESRCH; <nil> <nil>", joinCase{joins: 2}},
	})
}

func TestLockstepCancelAtSleep(t *testing.T) {
	lockstepArcs(t, []lockstepArc{{
		name: "sleep",
		want: "PTHREAD_CANCELED <nil>",
		goroutine: func(s *System, rec func(...any)) {
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				s.Sleep(50 * vtime.Millisecond)
				return "never"
			})
			s.Cancel(th)
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(50*vtime.Millisecond, func(k *Cont) { k.SetRet("never") })
			})
			s.Cancel(th)
			joinRec(s, rec, th)
		},
	}})
}

func TestLockstepCancelAtCondWait(t *testing.T) {
	// Cancellation at a condition-wait park point: the wait terminates,
	// the mutex is reacquired, and the cleanup handler releases it. The
	// goroutine variant pushes the handler via CleanupPush; the cont
	// variant does the same inline within a step.
	lockstepArcs(t, []lockstepArc{{
		name: "cond",
		want: "PTHREAD_CANCELED <nil>",
		goroutine: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th := spawn(s, lockstepAttr(s, "w", 1), func() any {
				m.Lock()
				s.CleanupPush(func(any) { m.Unlock() }, nil)
				c.Wait(m)
				s.CleanupPop(true)
				return "never"
			})
			s.Compute(vtime.Millisecond)
			s.Cancel(th)
			joinRec(s, rec, th)
		},
		cont: func(s *System, rec func(...any)) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th := spawnCont(s, lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.Sys().CleanupPush(func(any) { m.Unlock() }, nil)
					k.CondWait(c, m, func(k *Cont) {
						k.Sys().CleanupPop(true)
						k.SetRet("never")
					})
				})
			})
			s.Compute(vtime.Millisecond)
			s.Cancel(th)
			joinRec(s, rec, th)
		},
	}})
}

// TestContFrameSize pins the per-resident cost of a parked
// continuation's resume descriptor: a million residents pay it each. The
// frame holds no wait label, only the descriptor verb; no system
// pointer, dispatch flags, argument or exit status: those are the TCB's;
// and no slot of its own for a descriptor operation's request, which
// rides in N until an attempt completes.
func TestContFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Cont{}); n > 144 {
		t.Errorf("Cont is %d bytes, want at most 144", n)
	}
}

// TestThreadSize pins the TCB, the other per-resident cost: the
// scheduling state is packed into bytes, the wait label is a one-byte
// verb, the state a parked thread never touches (fake calls, sigwait,
// cleanup, TSD, the ceiling stack, AIO) and the pending-signal table
// are pointers allocated on first use, the wait-list and held-mutex
// lists are threaded through the TCBs and mutexes, and the execution
// context is a borrowed runner, not a channel. A timed wait's timer
// datum is a typed view of the TCB pointer, not a tag stored in it, and
// a continuation's dispatch flags sit in the packed bytes. The bound is
// the TCB's size exactly, so a field order that adds 8 B of padding
// fails it.
func TestThreadSize(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 256 {
		t.Errorf("Thread is %d bytes, want at most 256", n)
	}
}

// TestMutexSize and TestCondSize pin the synchronization objects at a
// list head plus, for the mutex, its link in the owner's held list:
// their wait queues are threaded through the waiters' TCBs, and their
// wait labels are rendered from their names only when read.
func TestMutexSize(t *testing.T) {
	if n := unsafe.Sizeof(Mutex{}); n > 128 {
		t.Errorf("Mutex is %d bytes, want at most 128", n)
	}
}

func TestCondSize(t *testing.T) {
	if n := unsafe.Sizeof(Cond{}); n > 72 {
		t.Errorf("Cond is %d bytes, want at most 72", n)
	}
}

// TestContParkedReleasesGoroutine pins the tentpole's resource claim: a
// continuation thread parked at a declared wait point holds no goroutine,
// and the runner pool stays bounded regardless of how many threads park.
func TestContParkedReleasesGoroutine(t *testing.T) {
	s := New(Config{})
	const parked = 200
	err := s.Run(func() {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		var ths []*Thread
		for i := 0; i < parked; i++ {
			th, _ := s.CreateCont(attr, func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.CondWait(c, m, func(k *Cont) { m.Unlock() })
				})
			}, nil)
			ths = append(ths, th)
		}
		st := s.Stats()
		if st.ContParked != parked {
			t.Errorf("ContParked = %d, want %d", st.ContParked, parked)
		}
		if st.RunnerPeak > 4 {
			t.Errorf("RunnerPeak = %d: runner pool not bounded", st.RunnerPeak)
		}
		m.Lock()
		c.Broadcast()
		m.Unlock()
		for _, th := range ths {
			s.Join(th)
		}
		if got := s.Stats().ContParked; got != 0 {
			t.Errorf("ContParked after joins = %d, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
