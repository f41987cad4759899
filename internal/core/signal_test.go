package core

import (
	"strings"
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

func TestKillRunsHandlerOnTargetThread(t *testing.T) {
	var handlerThread *Thread
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR1, func(_ unixkern.Signal, _ *unixkern.SigInfo, sc *SigContext) {
			handlerThread = sc.Thread()
		}, 0)
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		attr.Name = "target"
		th, _ := s.Create(attr, func(any) any {
			s.Sleep(vtime.Second)
			return nil
		}, nil)
		s.Kill(th, unixkern.SIGUSR1)
		s.Join(th)
		if handlerThread != th {
			t.Errorf("handler ran on %v, want %v", handlerThread, th)
		}
	})
}

func TestKillValidation2(t *testing.T) {
	runSystem(t, func(s *System) {
		if err := s.Kill(s.Self(), unixkern.SIGCANCEL); err == nil {
			t.Fatal("Kill with SIGCANCEL allowed")
		}
		if err := s.Kill(nil, unixkern.SIGUSR1); err == nil {
			t.Fatal("Kill(nil) allowed")
		}
	})
}

func TestThreadMaskPendsAndFlushes(t *testing.T) {
	// Action rule 1: a signal directed at a thread that masks it pends
	// on the thread; unblocking delivers it.
	count := 0
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			count++
		}, 0)
		old := s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR1))
		if !old.Empty() {
			t.Fatalf("initial mask %v", old)
		}
		s.Kill(s.Self(), unixkern.SIGUSR1)
		if count != 0 {
			t.Fatal("masked signal ran handler")
		}
		if !s.ThreadPendingSet(s.Self()).Has(unixkern.SIGUSR1) {
			t.Fatal("signal not pended on thread")
		}
		s.SetSigmask(0)
		if count != 1 {
			t.Fatalf("after unmask count = %d", count)
		}
	})
}

func TestThreadPendingOverwriteCounted(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR1))
		s.Kill(s.Self(), unixkern.SIGUSR1)
		s.Kill(s.Self(), unixkern.SIGUSR1)
		s.SetSigmask(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().LostThreadSigs != 1 {
		t.Fatalf("LostThreadSigs = %d", s.Stats().LostThreadSigs)
	}
}

func TestRecipientRule2SyncToCausingThread(t *testing.T) {
	var got *Thread
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGFPE, func(_ unixkern.Signal, info *unixkern.SigInfo, sc *SigContext) {
			got = sc.Thread()
			if info.Code != 7 {
				t.Errorf("code = %d", info.Code)
			}
		}, 0)
		s.RaiseSync(unixkern.SIGFPE, 7)
		if got != s.Self() {
			t.Errorf("sync signal delivered to %v", got)
		}
	})
}

func TestRecipientRule3TimerToArmer(t *testing.T) {
	var got *Thread
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGALRM, func(_ unixkern.Signal, _ *unixkern.SigInfo, sc *SigContext) {
			got = sc.Thread()
		}, 0)
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		attr.Name = "armer"
		th, _ := s.Create(attr, func(any) any {
			s.Alarm(2 * vtime.Millisecond)
			s.Compute(5 * vtime.Millisecond) // alarm fires mid-compute
			return nil
		}, nil)
		s.Join(th)
		if got != th {
			t.Errorf("alarm delivered to %v, want armer %v", got, th)
		}
	})
}

func TestRecipientRule4IOToRequester(t *testing.T) {
	runSystem(t, func(s *System) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		th, _ := s.Create(attr, func(any) any {
			n, err := s.AioRead(3*vtime.Millisecond, 512)
			if err != nil || n != 512 {
				t.Errorf("AioRead = %d, %v", n, err)
			}
			return nil
		}, nil)
		s.Join(th)
	})
}

func TestRecipientRule5LinearSearch(t *testing.T) {
	// The process-level signal goes to the first thread (in creation
	// order) with it unmasked; main masks it, thread A masks it, thread
	// B doesn't.
	var got string
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR2, func(_ unixkern.Signal, _ *unixkern.SigInfo, sc *SigContext) {
			got = sc.Thread().Name()
		}, 0)
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))

		mk := func(name string, masked bool) *Thread {
			attr := DefaultAttr()
			attr.Priority = s.Self().Priority() - 1
			attr.Name = name
			th, _ := s.Create(attr, func(any) any {
				if masked {
					s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))
				}
				s.Sleep(10 * vtime.Millisecond)
				return nil
			}, nil)
			return th
		}
		a := mk("A", true)
		b := mk("B", false)
		s.Sleep(vtime.Millisecond) // let them set masks and sleep
		s.RaiseProcess(unixkern.SIGUSR2)
		s.Join(a)
		s.Join(b)
	})
	if got != "B" {
		t.Fatalf("recipient = %q, want B", got)
	}
}

func TestRecipientRule6PendsOnProcess(t *testing.T) {
	// Every thread masks the signal: it pends at the process level and
	// is delivered when a thread becomes eligible.
	count := 0
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			count++
		}, 0)
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))
		s.RaiseProcess(unixkern.SIGUSR2)
		if count != 0 {
			t.Fatal("delivered despite all threads masking")
		}
		if !s.ProcessPendingSet().Has(unixkern.SIGUSR2) {
			t.Fatal("not pended on process")
		}
		s.SetSigmask(0) // now eligible
		if count != 1 {
			t.Fatalf("count = %d after unmask", count)
		}
		if !s.ProcessPendingSet().Empty() {
			t.Fatal("process pending not cleared")
		}
	})
}

func TestActionRule7DefaultTerminatesProcess(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		s.Kill(s.Self(), unixkern.SIGTERM) // no handler: default action
	})
	if err == nil {
		t.Fatal("default action did not terminate the process")
	}
}

func TestActionRule6IgnoreDiscards(t *testing.T) {
	runSystem(t, func(s *System) {
		s.SigactionIgnore(unixkern.SIGTERM)
		s.Kill(s.Self(), unixkern.SIGTERM)
		// still alive
		s.SigactionDefault(unixkern.SIGTERM)
	})
}

func TestSigwaitImmediateFromThreadPending(t *testing.T) {
	runSystem(t, func(s *System) {
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR1))
		s.Kill(s.Self(), unixkern.SIGUSR1) // pends on thread
		sig, err := s.Sigwait(unixkern.MakeSigset(unixkern.SIGUSR1))
		if err != nil || sig != unixkern.SIGUSR1 {
			t.Fatalf("Sigwait = %v, %v", sig, err)
		}
	})
}

func TestSigwaitBlocksUntilKill(t *testing.T) {
	var got unixkern.Signal
	runSystem(t, func(s *System) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		attr.Name = "waiter"
		th, _ := s.Create(attr, func(any) any {
			sig, err := s.Sigwait(unixkern.MakeSigset(unixkern.SIGUSR1, unixkern.SIGUSR2))
			if err != nil {
				t.Errorf("Sigwait: %v", err)
			}
			got = sig
			return nil
		}, nil)
		s.Kill(th, unixkern.SIGUSR2)
		s.Join(th)
	})
	if got != unixkern.SIGUSR2 {
		t.Fatalf("got %v", got)
	}
}

func TestSigwaitReceivesProcessSignal(t *testing.T) {
	// A sigwait thread "is just another case where the signal is
	// unmasked": rule 5 finds it for a process-level signal.
	var got unixkern.Signal
	runSystem(t, func(s *System) {
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGHUP)) // main ineligible
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			s.SetSigmask(unixkern.MakeSigset(unixkern.SIGHUP)) // masked except in sigwait
			sig, err := s.Sigwait(unixkern.MakeSigset(unixkern.SIGHUP))
			if err != nil {
				t.Errorf("Sigwait: %v", err)
			}
			got = sig
			// After sigwait the awaited signals are masked again.
			if !s.Sigmask().Has(unixkern.SIGHUP) {
				t.Error("SIGHUP not re-masked after sigwait")
			}
			return nil
		}, nil)
		s.RaiseProcess(unixkern.SIGHUP)
		s.Join(th)
	})
	if got != unixkern.SIGHUP {
		t.Fatalf("got %v", got)
	}
}

func TestSigwaitConsumesProcessPendingFirst(t *testing.T) {
	runSystem(t, func(s *System) {
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGHUP))
		s.RaiseProcess(unixkern.SIGHUP) // pends on process (rule 6)
		sig, err := s.Sigwait(unixkern.MakeSigset(unixkern.SIGHUP))
		if err != nil || sig != unixkern.SIGHUP {
			t.Fatalf("Sigwait = %v, %v", sig, err)
		}
	})
}

func TestSigwaitEmptySetEINVAL(t *testing.T) {
	runSystem(t, func(s *System) {
		if _, err := s.Sigwait(0); err == nil {
			t.Fatal("empty set accepted")
		}
	})
}

func TestHandlerErrnoPreserved(t *testing.T) {
	// The fake-call wrapper saves and restores the thread's errno around
	// the user handler.
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			s.SetErrno(ENOMEM) // clobber inside the handler
		}, 0)
		s.SetErrno(EAGAIN)
		s.Kill(s.Self(), unixkern.SIGUSR1)
		if e := s.Errno(); e != EAGAIN {
			t.Fatalf("errno after handler = %v, want EAGAIN", e)
		}
	})
}

func TestHandlerMaskInstalledAndRestored(t *testing.T) {
	runSystem(t, func(s *System) {
		var inHandler unixkern.Sigset
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			inHandler = s.Sigmask()
		}, unixkern.MakeSigset(unixkern.SIGUSR2))
		s.Kill(s.Self(), unixkern.SIGUSR1)
		if !inHandler.Has(unixkern.SIGUSR1) || !inHandler.Has(unixkern.SIGUSR2) {
			t.Fatalf("handler mask %v missing blocked signals", inHandler)
		}
		if !s.Sigmask().Empty() {
			t.Fatalf("mask after handler = %v", s.Sigmask())
		}
	})
}

func TestHandlerNestingRespectsСMask(t *testing.T) {
	// While handler A runs with USR2 in its sigaction mask, a USR2 pends
	// and runs only after A returns.
	var order []string
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			order = append(order, "usr2")
		}, 0)
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			order = append(order, "usr1-start")
			s.Kill(s.Self(), unixkern.SIGUSR2)
			order = append(order, "usr1-end")
		}, unixkern.MakeSigset(unixkern.SIGUSR2))
		s.Kill(s.Self(), unixkern.SIGUSR1)
	})
	want := []string{"usr1-start", "usr1-end", "usr2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v", order)
	}
}

func TestHandlerRedirectLongjmp(t *testing.T) {
	// The implementation-defined redirect: the wrapper transfers control
	// to a setjmp point instead of the interruption point — the Ada
	// exception mechanism.
	runSystem(t, func(s *System) {
		var jb JmpBuf
		s.Sigaction(unixkern.SIGFPE, func(_ unixkern.Signal, _ *unixkern.SigInfo, sc *SigContext) {
			sc.RedirectTo(&jb, 99)
		}, 0)
		reached := false
		v := s.Setjmp(&jb, func() {
			s.RaiseSync(unixkern.SIGFPE, 1)
			reached = true // must be skipped: control redirected
		})
		if v != 99 {
			t.Fatalf("Setjmp returned %d, want 99", v)
		}
		if reached {
			t.Fatal("control returned to interruption point despite redirect")
		}
	})
}

func TestHandlerInterruptsSleepEarly(t *testing.T) {
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			rem := s.Sleep(vtime.Second)
			return rem > 0
		}, nil)
		s.Kill(th, unixkern.SIGUSR1)
		v, _ := s.Join(th)
		if v != true {
			t.Fatal("sleep not interrupted early")
		}
	})
}

func TestSignalToBlockedSigwaitOtherSignal(t *testing.T) {
	// A handler for a different signal interrupting sigwait aborts the
	// wait with EINTR.
	runSystem(t, func(s *System) {
		s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			_, err := s.Sigwait(unixkern.MakeSigset(unixkern.SIGUSR1))
			e, _ := AsErrno(err)
			return e
		}, nil)
		s.Kill(th, unixkern.SIGUSR2)
		v, _ := s.Join(th)
		if v != EINTR {
			t.Fatalf("sigwait result %v, want EINTR", v)
		}
	})
}

func TestExternalSignalDemultiplexed(t *testing.T) {
	// kill(getpid(), sig) travels through the simulated UNIX kernel, the
	// universal handler, and a fake call to the receiving thread.
	var got string
	s := New(Config{})
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGINT, func(_ unixkern.Signal, _ *unixkern.SigInfo, sc *SigContext) {
			got = sc.Thread().Name()
		}, 0)
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGINT)) // main ineligible
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		attr.Name = "sigthread"
		th, _ := s.Create(attr, func(any) any {
			s.Sleep(10 * vtime.Millisecond)
			return nil
		}, nil)
		s.RaiseProcess(unixkern.SIGINT)
		s.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "sigthread" {
		t.Fatalf("recipient %q", got)
	}
	if s.Stats().SignalsExternal == 0 {
		t.Fatal("external path not counted")
	}
	// The budget: two sigsetmask system calls for the received signal.
	if n := s.Kernel().SyscallCounts[unixkern.SysSigsetmask]; n != 2 {
		t.Fatalf("sigsetmask count = %d, want 2", n)
	}
}

func TestSignalWhileInKernelDeferred(t *testing.T) {
	// A timer that fires while the library is inside the kernel is
	// logged and handled by the dispatcher — not recursively.
	runSystem(t, func(s *System) {
		fired := false
		s.Sigaction(unixkern.SIGALRM, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {
			fired = true
		}, 0)
		s.Alarm(10 * vtime.Microsecond)
		// A long kernel operation: the context switch charges ~37µs, so
		// the alarm expires while the kernel flag is set.
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority()
		th, _ := s.Create(attr, func(any) any { return nil }, nil)
		s.Yield()
		s.Join(th)
		if !fired {
			t.Fatal("deferred signal never handled")
		}
	})
}

func TestBoundedStackGrowthSpacedSignals(t *testing.T) {
	// Signals arriving slower than they are handled never accumulate
	// interrupt frames: each is fully handled (frame pushed and popped)
	// before the next. The stack high-water mark bounds the depth.
	s := New(Config{})
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGALRM, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		for i := 0; i < 50; i++ {
			s.Alarm(vtime.Duration(i+1) * vtime.Millisecond)
		}
		s.Compute(60 * vtime.Millisecond)
		info, _ := s.Inspect(s.Self())
		// Base frame + at most a couple of concurrently live interrupt
		// and fake-call frames — never the 50 signals' worth.
		if info.StackUsedMax > 4096 {
			t.Errorf("stack high water %d after 50 spaced signals", info.StackUsedMax)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSignalStormOverflowsDetectably(t *testing.T) {
	// A storm whose inter-arrival time is far below the handling cost
	// nests handler frames until the stack model faults — and the fault
	// is reported as a process death, not silent corruption.
	s := New(Config{})
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGALRM, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		for i := 0; i < 300; i++ {
			s.Alarm(vtime.Duration(i + 1)) // 1ns apart: hopeless
		}
		s.Compute(10 * vtime.Millisecond)
	})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow report", err)
	}
}

func TestSigsetjmpRestoresMask(t *testing.T) {
	runSystem(t, func(s *System) {
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR1))
		var jb JmpBuf
		v := s.Sigsetjmp(&jb, func() {
			s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))
			s.Longjmp(&jb, 5)
		})
		if v != 5 {
			t.Fatalf("Sigsetjmp = %d", v)
		}
		if !s.Sigmask().Has(unixkern.SIGUSR1) || s.Sigmask().Has(unixkern.SIGUSR2) {
			t.Fatalf("mask after siglongjmp = %v", s.Sigmask())
		}
	})
}

func TestSigactionValidation(t *testing.T) {
	runSystem(t, func(s *System) {
		h := func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}
		if err := s.Sigaction(unixkern.SIGKILL, h, 0); err == nil {
			t.Fatal("sigaction on SIGKILL allowed")
		}
		if err := s.Sigaction(unixkern.SIGCANCEL, h, 0); err == nil {
			t.Fatal("sigaction on SIGCANCEL allowed")
		}
		if err := s.SigactionIgnore(unixkern.SIGSTOP); err == nil {
			t.Fatal("ignore SIGSTOP allowed")
		}
		if err := s.SigactionDefault(unixkern.SIGKILL); err == nil {
			t.Fatal("default SIGKILL allowed")
		}
	})
}
