package core

import (
	"fmt"
	"testing"

	"pthreads/internal/vtime"
)

// Lockstep tests: every scenario runs twice — once with goroutine-backed
// threads (Create) and once with parked continuations (CreateCont) — and
// the two runs must produce byte-identical traces, the same final virtual
// clock, and the same counters. This pins the tentpole invariant that the
// continuation representation is purely host-side: it may not perturb a
// single virtual charge, trace event, or scheduling decision.

// lockstepTracer records a compact rendering of every trace event.
type lockstepTracer struct{ lines []string }

func (tr *lockstepTracer) Event(ev TraceEvent) {
	name := ""
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	tr.lines = append(tr.lines, fmt.Sprintf("%v %v %s %s %s %s",
		ev.At, ev.Kind, name, ev.Obj, ev.Arg, ev.Detail))
}

// lockstepRun executes main under a tracer and returns the trace, the
// final clock, and the stats with the representation-specific (host-side)
// fields zeroed.
func lockstepRun(t *testing.T, main func(s *System)) ([]string, vtime.Time, Stats) {
	t.Helper()
	tr := &lockstepTracer{}
	s := New(Config{Tracer: tr})
	if err := s.Run(func() { main(s) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	st.ContThreads, st.ContParked, st.RunnerBinds = 0, 0, 0
	st.BatonSends, st.RunnerTrampolines = 0, 0
	st.RunnerLive, st.RunnerPeak = 0, 0
	st.ArenaChunks, st.ArenaSlotBytes = 0, 0
	return tr.lines, s.Now(), st
}

// lockstep runs the goroutine and continuation variants and diffs them.
func lockstep(t *testing.T, goroutine, cont func(s *System)) {
	t.Helper()
	gl, gt, gs := lockstepRun(t, goroutine)
	cl, ct, cs := lockstepRun(t, cont)
	if gt != ct {
		t.Errorf("final clock diverged: goroutine %v, cont %v", gt, ct)
	}
	if gs != cs {
		t.Errorf("stats diverged:\ngoroutine %+v\ncont      %+v", gs, cs)
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
}

func lockstepAttr(s *System, name string, dprio int) Attr {
	attr := DefaultAttr()
	attr.Name = name
	attr.Priority = s.Self().Priority() + dprio
	return attr
}

func TestLockstepSleep(t *testing.T) {
	lockstep(t,
		func(s *System) {
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				s.Sleep(5 * vtime.Millisecond)
				return "done"
			}, nil)
			v, _ := s.Join(th)
			if v != "done" {
				t.Errorf("join = %v", v)
			}
		},
		func(s *System) {
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(5*vtime.Millisecond, func(k *Cont) { k.Ret = "done" })
			}, nil)
			v, _ := s.Join(th)
			if v != "done" {
				t.Errorf("join = %v", v)
			}
		})
}

func TestLockstepYield(t *testing.T) {
	body := func(s *System) { // goroutine variant shared by both yielders
		for i := 0; i < 3; i++ {
			s.Yield()
		}
	}
	var contStep ContFunc
	lockstep(t,
		func(s *System) {
			a, _ := s.Create(lockstepAttr(s, "a", 1), func(any) any { body(s); return nil }, nil)
			b, _ := s.Create(lockstepAttr(s, "b", 1), func(any) any { body(s); return nil }, nil)
			s.Join(a)
			s.Join(b)
		},
		func(s *System) {
			contStep = func(k *Cont) {
				n, _ := k.Env.(int)
				if n >= 3 {
					return
				}
				k.Env = n + 1
				k.Yield(contStep)
			}
			a, _ := s.CreateCont(lockstepAttr(s, "a", 1), contStep, nil)
			b, _ := s.CreateCont(lockstepAttr(s, "b", 1), contStep, nil)
			s.Join(a)
			s.Join(b)
		})
}

func TestLockstepMutexContention(t *testing.T) {
	lockstep(t,
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			m.Lock()
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				m.Lock()
				m.Unlock()
				return nil
			}, nil)
			s.Compute(vtime.Millisecond)
			m.Unlock()
			s.Join(th)
		},
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			m.Lock()
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) { m.Unlock() })
			}, nil)
			s.Compute(vtime.Millisecond)
			m.Unlock()
			s.Join(th)
		})
}

func TestLockstepCondSignal(t *testing.T) {
	lockstep(t,
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				m.Lock()
				err := c.Wait(m)
				m.Unlock()
				return err
			}, nil)
			m.Lock()
			c.Signal()
			m.Unlock()
			v, _ := s.Join(th)
			if v != nil {
				t.Errorf("wait = %v", v)
			}
		},
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.CondWait(c, m, func(k *Cont) {
						err := k.Err
						m.Unlock()
						k.Ret = err
					})
				})
			}, nil)
			m.Lock()
			c.Signal()
			m.Unlock()
			v, _ := s.Join(th)
			if v != nil {
				t.Errorf("wait = %v", v)
			}
		})
}

func TestLockstepCondTimeout(t *testing.T) {
	lockstep(t,
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				m.Lock()
				err := c.TimedWait(m, 2*vtime.Millisecond)
				m.Unlock()
				return err
			}, nil)
			v, _ := s.Join(th)
			if e, _ := AsErrno(v.(error)); e != ETIMEDOUT {
				t.Errorf("timed wait = %v", v)
			}
		},
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.CondTimedWait(c, m, 2*vtime.Millisecond, func(k *Cont) {
						err := k.Err
						m.Unlock()
						k.Ret = err
					})
				})
			}, nil)
			v, _ := s.Join(th)
			if e, _ := AsErrno(v.(error)); e != ETIMEDOUT {
				t.Errorf("timed wait = %v", v)
			}
		})
}

func TestLockstepJoinChain(t *testing.T) {
	lockstep(t,
		func(s *System) {
			inner, _ := s.Create(lockstepAttr(s, "inner", -1), func(any) any {
				s.Sleep(vtime.Millisecond)
				return 42
			}, nil)
			outer, _ := s.Create(lockstepAttr(s, "outer", 1), func(any) any {
				v, _ := s.Join(inner)
				return v
			}, nil)
			v, _ := s.Join(outer)
			if v != 42 {
				t.Errorf("join = %v", v)
			}
		},
		func(s *System) {
			inner, _ := s.Create(lockstepAttr(s, "inner", -1), func(any) any {
				s.Sleep(vtime.Millisecond)
				return 42
			}, nil)
			outer, _ := s.CreateCont(lockstepAttr(s, "outer", 1), func(k *Cont) {
				k.Join(inner, func(k *Cont) { k.Ret = k.Val })
			}, nil)
			v, _ := s.Join(outer)
			if v != 42 {
				t.Errorf("join = %v", v)
			}
		})
}

func TestLockstepCancelAtSleep(t *testing.T) {
	lockstep(t,
		func(s *System) {
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				s.Sleep(50 * vtime.Millisecond)
				return "never"
			}, nil)
			s.Cancel(th)
			v, _ := s.Join(th)
			if v != Canceled {
				t.Errorf("join = %v", v)
			}
		},
		func(s *System) {
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Sleep(50*vtime.Millisecond, func(k *Cont) { k.Ret = "never" })
			}, nil)
			s.Cancel(th)
			v, _ := s.Join(th)
			if v != Canceled {
				t.Errorf("join = %v", v)
			}
		})
}

func TestLockstepCancelAtCondWait(t *testing.T) {
	// Cancellation at a condition-wait park point: the wait terminates,
	// the mutex is reacquired, and the cleanup handler releases it. The
	// goroutine variant pushes the handler via CleanupPush; the cont
	// variant does the same inline within a step.
	lockstep(t,
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.Create(lockstepAttr(s, "w", 1), func(any) any {
				m.Lock()
				s.CleanupPush(func(any) { m.Unlock() }, nil)
				c.Wait(m)
				s.CleanupPop(true)
				return "never"
			}, nil)
			s.Compute(vtime.Millisecond)
			s.Cancel(th)
			v, _ := s.Join(th)
			if v != Canceled {
				t.Errorf("join = %v", v)
			}
		},
		func(s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			c := s.NewCond("c")
			th, _ := s.CreateCont(lockstepAttr(s, "w", 1), func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.Sys().CleanupPush(func(any) { m.Unlock() }, nil)
					k.CondWait(c, m, func(k *Cont) {
						k.Sys().CleanupPop(true)
						k.Ret = "never"
					})
				})
			}, nil)
			s.Compute(vtime.Millisecond)
			s.Cancel(th)
			v, _ := s.Join(th)
			if v != Canceled {
				t.Errorf("join = %v", v)
			}
		})
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
