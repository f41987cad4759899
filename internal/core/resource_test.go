package core

import (
	"runtime"
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Regression tests for the two resource bugs fixed alongside the
// parked-continuation work:
//
//  1. allocTCB eagerly allocated a host stack for lazily created threads,
//     so a thread that never ran still paid for a stack. The stack is now
//     deferred to first activation (ensureStack).
//  2. reclaim built each replacement pool TCB with a fresh 1-buffered
//     resume channel while the dead TCB kept its own alive, so create/join
//     churn accumulated channels (and any goroutine parked on one). A TCB
//     now holds no channel at all: it runs on a pooled runner.

func TestLazyThreadDefersStack(t *testing.T) {
	s := New(Config{DisablePool: true}) // force the allocTCB miss path
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, err := s.Create(attr, func(any) any { return "ran" }, nil)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if th.stack != nil {
			t.Errorf("lazy thread has a host stack before activation")
		}
		if th.stackSize == 0 {
			t.Errorf("lazy thread did not record its requested stack size")
		}
		if err := s.Activate(th); err != nil {
			t.Fatalf("Activate: %v", err)
		}
		if th.stack == nil {
			t.Errorf("activated thread has no host stack")
		}
		if v, _ := s.Join(th); v != "ran" {
			t.Errorf("join = %v", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLazyThreadStackOnSignalDelivery(t *testing.T) {
	// Signal delivery to a StateNew thread pushes a fake call, which
	// needs the host stack; ensureStack must run before the push.
	s := New(Config{DisablePool: true})
	got := 0
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGUSR1, func(sig unixkern.Signal, info *unixkern.SigInfo, sc *SigContext) {
			got++
		}, 0)
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, _ := s.Create(attr, func(any) any { return nil }, nil)
		if th.stack != nil {
			t.Fatalf("lazy thread has a stack before delivery")
		}
		if err := s.Kill(th, unixkern.SIGUSR1); err != nil {
			t.Fatalf("Kill: %v", err)
		}
		s.Join(th)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

func TestLazyContThreadDefersStack(t *testing.T) {
	s := New(Config{DisablePool: true})
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, err := s.CreateCont(attr, func(k *Cont) { k.Ret = "ran" }, nil)
		if err != nil {
			t.Fatalf("CreateCont: %v", err)
		}
		if th.stack != nil {
			t.Errorf("lazy cont thread has a host stack before activation")
		}
		if v, _ := s.Join(th); v != "ran" { // join activates
			t.Errorf("join = %v", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChurnLeaksNoGoroutines(t *testing.T) {
	// 10k create/join churn must return the host to its baseline
	// goroutine count: every runner, bound or idle, ends with the run.
	before := runtime.NumGoroutine()
	for _, cont := range []bool{false, true} {
		s := New(Config{})
		err := s.Run(func() {
			attr := DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			for i := 0; i < 10000; i++ {
				var th *Thread
				if cont {
					th, _ = s.CreateCont(attr, func(k *Cont) {
						k.Yield(func(k *Cont) {})
					}, nil)
				} else {
					th, _ = s.Create(attr, func(any) any {
						s.Yield()
						return nil
					}, nil)
				}
				if _, err := s.Join(th); err != nil {
					t.Fatalf("join %d: %v", i, err)
				}
			}
		})
		if err != nil {
			t.Fatalf("Run(cont=%v): %v", cont, err)
		}
	}
	// Runners end asynchronously once Run returns.
	awaitGoroutines(t, before)
}

// TestPooledCreateJoinRunsOnRunners: a steady-state Create+Join round of
// a pooled thread allocates nothing — no goroutine, channel or pool
// entry. The thread runs above main's priority, so it exits before
// main joins it and the round builds no wait description; it binds the
// runner its predecessor's exit released.
func TestPooledCreateJoinRunsOnRunners(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		round := func() {
			th, _ := s.Create(attr, func(any) any { return nil }, nil)
			s.Join(th)
		}
		if n := allocsPerRound(100, 1000, round); n != 0 {
			t.Errorf("pooled Create+Join allocates %d/round, want 0", n)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Main's runner, and the one every round's thread binds in turn.
	if st := s.Stats(); st.RunnerPeak != 2 {
		t.Errorf("RunnerPeak = %d, want 2", st.RunnerPeak)
	}
}

// TestSleepManyParkedFootprint exercises a broad park/wake cycle through
// the timer path with continuations: many threads asleep at once, all
// represented without goroutines.
func TestSleepManyParkedFootprint(t *testing.T) {
	s := New(Config{})
	const n = 500
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		var ths []*Thread
		for i := 0; i < n; i++ {
			// Long enough that no sleeper expires while the creation loop
			// itself advances the virtual clock.
			d := vtime.Second + vtime.Duration(i%7)*vtime.Millisecond
			th, _ := s.CreateCont(attr, func(k *Cont) {
				k.Sleep(d, func(k *Cont) {})
			}, nil)
			ths = append(ths, th)
		}
		if st := s.Stats(); st.ContParked != n {
			t.Errorf("ContParked = %d, want %d", st.ContParked, n)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
