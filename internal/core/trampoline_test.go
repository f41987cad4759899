package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pthreads/internal/vtime"
)

// Tests of the baton transport: a switch from a thread that releases
// its runner to a thread that needs one stays on that runner
// (RunnerTrampolines), every other switch sends on the incoming
// thread's runner (BatonSends), and a system that ends — however it
// ends — leaves no runner behind.

// condRing is a token ring of n members under one mutex, one condition
// variable per member, in the canonical "while not my turn: wait" loop.
// The holder passes the token by signalling its successor and waiting on
// its own variable. After hops hops the holder stops the ring and every
// member exits. onHop runs with the mutex held after each hop.
type condRing struct {
	s     *System
	m     *Mutex
	cv    []*Cond
	turn  int
	hops  int
	limit int
	stop  bool
	onHop func(hop int)
}

func newCondRing(s *System, n, hops int) *condRing {
	g := &condRing{s: s, m: s.MustMutex(MutexAttr{Name: "ring"}), limit: hops}
	for i := 0; i < n; i++ {
		g.cv = append(g.cv, s.NewCond("hop"))
	}
	return g
}

// pass is one visit of member i with the mutex held: it reports
// whether i must wait for the token (false: the ring stopped, the mutex
// is released and the member exits).
func (g *condRing) pass(i int) (wait bool) {
	for !g.stop {
		if g.turn != i {
			return true
		}
		if g.hops == g.limit {
			g.stop = true
			for _, c := range g.cv {
				c.Signal()
			}
			break
		}
		g.hops++
		g.turn = (i + 1) % len(g.cv)
		g.cv[g.turn].Signal()
		if g.onHop != nil {
			g.onHop(g.hops)
		}
	}
	g.m.Unlock()
	return false
}

// startCont creates the members as continuation threads at the
// caller's priority.
func (g *condRing) startCont() []*Thread {
	var ths []*Thread
	for i := range g.cv {
		var check ContFunc
		check = func(k *Cont) {
			if g.pass(i) {
				k.CondWait(g.cv[i], g.m, check)
			}
		}
		th, _ := g.s.CreateCont(DefaultAttr(), func(k *Cont) { k.Lock(g.m, check) }, nil)
		ths = append(ths, th)
	}
	return ths
}

// startGoroutine creates the same members as goroutine threads.
func (g *condRing) startGoroutine() []*Thread {
	var ths []*Thread
	for i := range g.cv {
		th, _ := g.s.Create(DefaultAttr(), func(any) any {
			g.m.Lock()
			for g.pass(i) {
				g.cv[i].Wait(g.m)
			}
			return nil
		}, nil)
		ths = append(ths, th)
	}
	return ths
}

// closer creates a continuation thread below the caller's priority that
// joins ths. It runs only once every member has exited, so a main that
// joins the closer is switched to and from exactly once.
func closer(s *System, ths []*Thread) *Thread {
	attr := DefaultAttr()
	attr.Priority = s.Self().Priority() - 1
	var join ContFunc
	i := 0
	join = func(k *Cont) {
		if i < len(ths) {
			i++
			k.Join(ths[i-1], join)
		}
	}
	th, _ := s.CreateCont(attr, join, nil)
	return th
}

// TestTrampolineCondRing: in a continuation-only ring every switch is
// taken on the one ring runner. Only main's start, main's switch into
// the ring and the switch back to main at the end send a baton; main
// holds the second runner throughout.
func TestTrampolineCondRing(t *testing.T) {
	const members, hops = 64, 10000
	s := New(Config{})
	var mid0, mid1 Stats
	err := s.Run(func() {
		g := newCondRing(s, members, hops)
		g.onHop = func(hop int) {
			switch hop {
			case 100:
				mid0 = s.Stats()
			case hops:
				mid1 = s.Stats()
			}
		}
		s.Join(closer(s, g.startCont()))
		if g.hops != hops {
			t.Errorf("ring made %d hops, want %d", g.hops, hops)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.BatonSends != 3 {
		t.Errorf("BatonSends = %d, want 3 (main's start, into the ring, back to main)", st.BatonSends)
	}
	if want := st.ContextSwitches - 2; st.RunnerTrampolines != want {
		t.Errorf("RunnerTrampolines = %d, want %d (every switch but the two from and to main)",
			st.RunnerTrampolines, want)
	}
	if st.RunnerPeak != 2 {
		t.Errorf("RunnerPeak = %d, want 2 (main's and the ring's)", st.RunnerPeak)
	}
	sw := mid1.ContextSwitches - mid0.ContextSwitches
	if sw < hops-100 {
		t.Errorf("%d switches over %d hops", sw, hops-100)
	}
	if got := mid1.RunnerTrampolines - mid0.RunnerTrampolines; got != sw {
		t.Errorf("mid-ring: %d trampolines for %d switches", got, sw)
	}
	if got := mid1.BatonSends - mid0.BatonSends; got != 0 {
		t.Errorf("mid-ring: %d baton sends, want 0", got)
	}
}

// TestTrampolineGoroutineRing: the same ring on Create threads sends a
// baton for every switch and never trampolines: each member holds its
// runner from its first dispatch to its exit.
func TestTrampolineGoroutineRing(t *testing.T) {
	const members, hops = 64, 10000
	s := New(Config{})
	err := s.Run(func() {
		g := newCondRing(s, members, hops)
		for _, th := range g.startGoroutine() {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.ContextSwitches < hops {
		t.Errorf("%d switches over %d hops", st.ContextSwitches, hops)
	}
	// The extra send is main's start, which is not a context switch.
	if st.BatonSends != st.ContextSwitches+1 {
		t.Errorf("BatonSends = %d, want ContextSwitches+1 = %d", st.BatonSends, st.ContextSwitches+1)
	}
	if st.RunnerTrampolines != 0 {
		t.Errorf("RunnerTrampolines = %d, want 0", st.RunnerTrampolines)
	}
}

// awaitGoroutines waits, bounded, for the host goroutine count to fall
// back to before.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before New %d, after Run %d", before, after)
	}
}

// TestTrampolineTeardown ends systems every way a run can end, and the
// goroutine count must come back exactly: every runner, bound or idle,
// ends with the run. The first rows end a continuation-only ring while
// its runner trampolines: Shutdown from a step, a deadlock of the whole
// ring, and a panic in a step. The create- rows end systems of Create
// threads, each holding a runner from its first dispatch to its exit:
// main returning last, a detached thread exiting last (its runner is
// the caller's own in finish, and the thread is already reclaimed, off
// the roster), and Shutdown, a deadlock and a panic while threads are
// blocked inline.
func TestTrampolineTeardown(t *testing.T) {
	const members, at = 16, 500
	ring := func(onHop func(s *System, g *condRing)) func(t *testing.T, s *System) {
		return func(t *testing.T, s *System) {
			g := newCondRing(s, members, 2*at)
			g.onHop = func(hop int) {
				if hop == at {
					// Each hop after the first follows a switch.
					if st := s.Stats(); st.RunnerTrampolines < at-1 {
						t.Errorf("only %d trampolines by hop %d", st.RunnerTrampolines, at)
					}
					onHop(s, g)
				}
			}
			s.Join(closer(s, g.startCont()))
			t.Errorf("ring ran to completion")
		}
	}
	// blockInline creates one Create thread blocked in each kind of
	// inline wait: a mutex the caller holds, a condition wait, a sleep,
	// and a join of a thread that never exits. It returns the first.
	blockInline := func(s *System) *Thread {
		m := s.MustMutex(MutexAttr{Name: "m"})
		m.Lock()
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		cv := s.NewCond("never")
		create := func(fn func()) *Thread {
			th, _ := s.Create(attr, func(any) any { fn(); return nil }, nil)
			return th
		}
		locker := create(func() { m.Lock() })
		waiter := create(func() {
			c := s.MustMutex(MutexAttr{Name: "c"})
			c.Lock()
			cv.Wait(c)
		})
		create(func() { s.Sleep(vtime.Second) })
		create(func() { s.Join(waiter) })
		return locker
	}
	clean := func(t *testing.T, s *System, err error) {
		if err != nil {
			t.Errorf("Run = %v, want nil", err)
		}
	}
	stopped := func(t *testing.T, s *System, err error) {
		if err != nil || s.ExitStatus() != "stopped" {
			t.Errorf("Run = %v, status %v; want nil, stopped", err, s.ExitStatus())
		}
	}
	deadlocked := func(t *testing.T, s *System, err error) {
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("Run = %v, want a deadlock report", err)
		}
	}
	panicked := func(t *testing.T, s *System, err error) {
		if err == nil || !strings.Contains(err.Error(), "panic in") ||
			!strings.Contains(err.Error(), "boom") {
			t.Errorf("Run = %v, want the thread's panic", err)
		}
	}
	cases := []struct {
		name  string
		main  func(t *testing.T, s *System)
		check func(t *testing.T, s *System, err error)
	}{
		{"shutdown", ring(func(s *System, g *condRing) { s.Shutdown("stopped") }), stopped},
		// The token goes to no member, so every member waits forever.
		{"deadlock", ring(func(s *System, g *condRing) { g.turn = -1 }), deadlocked},
		{"panic", ring(func(s *System, g *condRing) { panic("boom") }), panicked},
		{"create-main-last", func(t *testing.T, s *System) {
			m := s.MustMutex(MutexAttr{Name: "m"})
			var ths []*Thread
			for i := 0; i < 4; i++ {
				th, _ := s.Create(DefaultAttr(), func(any) any {
					m.Lock()
					s.Yield()
					m.Unlock()
					return nil
				}, nil)
				ths = append(ths, th)
			}
			for _, th := range ths {
				s.Join(th)
			}
		}, clean},
		{"create-detached-last", func(t *testing.T, s *System) {
			attr := DefaultAttr()
			attr.Detached = true
			attr.Priority = s.Self().Priority() - 1
			s.Create(attr, func(any) any {
				s.Sleep(vtime.Millisecond)
				return nil
			}, nil)
		}, clean},
		{"create-shutdown", func(t *testing.T, s *System) {
			blockInline(s)
			s.Shutdown("stopped")
		}, stopped},
		{"create-deadlock", func(t *testing.T, s *System) {
			s.Join(blockInline(s))
		}, deadlocked},
		{"create-panic", func(t *testing.T, s *System) {
			blockInline(s)
			th, _ := s.Create(DefaultAttr(), func(any) any { panic("boom") }, nil)
			s.Join(th)
		}, panicked},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(Config{})
			err := s.Run(func() { tc.main(t, s) })
			tc.check(t, s, err)
			awaitGoroutines(t, before)
		})
	}
}

// TestLockstepExitChain: each thread's exit hands the processor to the
// next, which binds the runner the exit released and runs on it, in
// both representations. Schedules match exactly.
func TestLockstepExitChain(t *testing.T) {
	const n = 8
	var gst, st Stats
	chain := func(s *System, create func(attr Attr, i int) *Thread) {
		var ths []*Thread
		for i := 0; i < n; i++ {
			ths = append(ths, create(lockstepAttr(s, "w", 0), i))
		}
		for i, th := range ths {
			if v, _ := s.Join(th); v != i {
				t.Errorf("join %d = %v", i, v)
			}
		}
	}
	lockstep(t,
		func(s *System, _ func(...any)) {
			chain(s, func(attr Attr, i int) *Thread {
				th, _ := s.Create(attr, func(any) any { return i }, nil)
				return th
			})
			gst = s.Stats()
		},
		func(s *System, _ func(...any)) {
			chain(s, func(attr Attr, i int) *Thread {
				th, _ := s.CreateCont(attr, func(k *Cont) { k.SetRet(i) }, nil)
				return th
			})
			st = s.Stats()
		})
	// Main joins w0 first: w0 is dispatched by a send, w1..w7 each by
	// the exit of its predecessor, and w7's exit sends back to main.
	for _, v := range []struct {
		name string
		st   Stats
	}{{"goroutine", gst}, {"cont", st}} {
		if v.st.RunnerTrampolines != n-1 {
			t.Errorf("%s: RunnerTrampolines = %d, want %d exits handed on", v.name, v.st.RunnerTrampolines, n-1)
		}
		if v.st.BatonSends != 3 {
			t.Errorf("%s: BatonSends = %d, want 3", v.name, v.st.BatonSends)
		}
	}
}

// TestRunnerTrampolineStopsOnShutdown: a runner holding a baton it
// passed to itself takes the exits its select would take. With the
// system finished, or a kill waiting on its channel, it ends without
// running the bound thread's step.
func TestRunnerTrampolineStopsOnShutdown(t *testing.T) {
	for _, tc := range []struct {
		name           string
		finished, kill bool
	}{{"finished", true, false}, {"kill", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			ran := false
			th := &Thread{sys: s, state: StateRunning, contFirst: true}
			th.cont = &Cont{t: th, next: func(*Cont) { ran = true }}
			s.current = th
			r := &runner{resume: make(chan resumeMsg, 1), t: th, again: true}
			if tc.finished {
				s.Stop(nil)
			}
			if tc.kill {
				r.resume <- resumeMsg{kill: true}
			}
			done := make(chan struct{})
			go func() {
				s.runnerLoop(r)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("runner did not end")
			}
			if ran {
				t.Error("runner stepped its thread after shutdown")
			}
		})
	}
}
