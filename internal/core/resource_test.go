package core

import (
	"runtime"
	"strings"
	"testing"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Regression tests for the two resource bugs fixed alongside the
// parked-continuation work:
//
//  1. allocTCB eagerly allocated a host stack for lazily created threads,
//     so a thread that never ran still paid for a stack. A thread off the
//     creation pool, lazy or not, now gets its stack at its first push
//     past the base frame (frames), and reports its stack from stackSize
//     until then.
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
		if v, _ := s.Join(th); v != "ran" {
			t.Errorf("join = %v", v)
		}
		// Activation and a whole run without a signal, a fake call or
		// UseStack push nothing past the base frame.
		if th.stack != nil {
			t.Errorf("thread built a host stack without pushing a frame")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLazyThreadStackOnSignalDelivery(t *testing.T) {
	// Signal delivery to a StateNew thread pushes a fake call, the first
	// frame past its base frame: the push builds the stack.
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
		info, _ := s.Inspect(th)
		if th.stack == nil || th.stack.Depth() != 2 || th.stack.Top().Kind != hw.FrameFakeCall {
			t.Errorf("fake call did not build the stack with base and fake-call frames")
		}
		if want := int64(hw.BaseFrameSize + hw.FakeCallFrameSize); info.StackSize != hw.DefaultStackSize || info.StackUsedMax != want {
			t.Errorf("after the fake call: StackSize %d, StackUsedMax %d; want %d, %d",
				info.StackSize, info.StackUsedMax, hw.DefaultStackSize, want)
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

// stackReport is what a thread reports of its stack: Inspect's size
// and high-water mark, and StackFree from inside the thread.
type stackReport struct{ size, usedMax, free int64 }

func reportStack(s *System) stackReport {
	info, _ := s.Inspect(s.Self())
	return stackReport{info.StackSize, info.StackUsedMax, s.StackFree()}
}

// TestStackReportBeforeFirstPush: main with a pooled stack and main with
// none (the pool disabled) report the same stack values before and after
// the first interrupt frame: before it, the requested size and the base
// frame; after a handled signal, the interrupt and fake-call frames in
// the high-water mark, and the stack built. A lazy thread that has not
// run reports its requested size and the base frame too.
func TestStackReportBeforeFirstPush(t *testing.T) {
	type run struct{ lazy, before, during, after stackReport }
	measure := func(disablePool bool) (r run, built bool) {
		s := New(Config{DisablePool: disablePool})
		err := s.Run(func() {
			if !disablePool && s.Self().stack == nil {
				t.Fatal("pooled main has no stack")
			}
			attr := DefaultAttr()
			attr.Lazy, attr.StackSize = true, 8192
			th, _ := s.Create(attr, func(any) any { return nil }, nil)
			info, _ := s.Inspect(th)
			r.lazy = stackReport{info.StackSize, info.StackUsedMax, 0}
			s.Join(th)
			r.before = reportStack(s)
			s.Sigaction(unixkern.SIGALRM, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
				r.during = reportStack(s)
			}, 0)
			s.Alarm(vtime.Millisecond)
			s.Compute(2 * vtime.Millisecond)
			r.after = reportStack(s)
			built = s.Self().stack != nil
		})
		if err != nil {
			t.Fatalf("Run(DisablePool %v): %v", disablePool, err)
		}
		return r, built
	}
	const size = hw.DefaultStackSize
	used := int64(hw.BaseFrameSize + hw.InterruptFrameSize + hw.FakeCallFrameSize)
	want := run{
		lazy:   stackReport{8192, hw.BaseFrameSize, 0},
		before: stackReport{size, hw.BaseFrameSize, size - hw.BaseFrameSize},
		during: stackReport{size, used, size - used},
		after:  stackReport{size, used, size - hw.BaseFrameSize},
	}
	pooled, _ := measure(false)
	lazy, built := measure(true)
	if pooled != want {
		t.Errorf("pooled stack reports %+v, want %+v", pooled, want)
	}
	if lazy != want {
		t.Errorf("stack built at first push reports %+v, want %+v", lazy, want)
	}
	if !built {
		t.Error("the interrupt frame did not build the stack")
	}
}

// TestUseStackOverflowWithoutStack: UseStack past the stack's size on a
// thread that has no stack object yet raises the same SIGSEGV, with the
// same report, as on a pooled stack.
func TestUseStackOverflowWithoutStack(t *testing.T) {
	overflow := func(disablePool bool) error {
		s := New(Config{DisablePool: disablePool})
		return s.Run(func() {
			if disablePool && s.Self().stack != nil {
				t.Error("main has a stack before its first push")
			}
			s.UseStack(s.StackFree()+1, func() {
				t.Error("body ran despite overflow")
			})
		})
	}
	pooled, lazy := overflow(false), overflow(true)
	if lazy == nil || !strings.Contains(lazy.Error(), "SIGSEGV") {
		t.Fatalf("overflow without a stack: err = %v", lazy)
	}
	if pooled == nil || pooled.Error() != lazy.Error() {
		t.Errorf("overflow reports differ:\n pooled: %v\n  built: %v", pooled, lazy)
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
