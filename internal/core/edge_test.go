package core

import (
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Edge-interaction tests for branches the mainline suites do not reach.

func TestSetSchedParamRepositionsMutexWaiter(t *testing.T) {
	// Raising the priority of a thread blocked on a mutex must reorder
	// the wait queue so it is granted first.
	var order []string
	runSystem(t, func(s *System) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		m.Lock()
		mk := func(name string, prio int) *Thread {
			attr := DefaultAttr()
			attr.Name = name
			attr.Priority = prio
			th, _ := s.Create(attr, func(any) any {
				m.Lock()
				order = append(order, name)
				m.Unlock()
				return nil
			}, nil)
			return th
		}
		a := mk("a", 10)
		b := mk("b", 12)
		s.Sleep(vtime.Millisecond) // both blocked, b ahead
		// Boost a above b while it waits.
		if err := s.SetSchedParam(a, SchedFIFO, 20); err != nil {
			t.Fatal(err)
		}
		m.Unlock()
		s.Join(a)
		s.Join(b)
	})
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("grant order %v, want boosted waiter first", order)
	}
}

func TestSetSchedParamRepositionsCondWaiter(t *testing.T) {
	var order []string
	runSystem(t, func(s *System) {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		mk := func(name string, prio int) *Thread {
			attr := DefaultAttr()
			attr.Name = name
			attr.Priority = prio
			th, _ := s.Create(attr, func(any) any {
				m.Lock()
				c.Wait(m)
				order = append(order, name)
				m.Unlock()
				return nil
			}, nil)
			return th
		}
		a := mk("a", 10)
		b := mk("b", 12)
		s.Sleep(vtime.Millisecond)
		s.SetSchedParam(a, SchedFIFO, 20)
		c.Signal() // must wake a (now highest)
		c.Signal()
		s.Join(a)
		s.Join(b)
	})
	if order[0] != "a" {
		t.Fatalf("wake order %v", order)
	}
}

func TestBroadcastBoostsOwnerThroughReacquisition(t *testing.T) {
	// Broadcast with the inherit mutex held: woken waiters queue on the
	// mutex and their priorities boost the holder.
	runSystem(t, func(s *System) {
		m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolInherit})
		c := s.NewCond("c")
		var boosted int
		attr := DefaultAttr()
		attr.Priority = 4
		attr.Name = "holder"
		holder, _ := s.Create(attr, func(any) any {
			m.Lock()
			// Waiters are broadcast while we hold m; they pile onto the
			// mutex queue and we inherit the highest.
			s.Compute(3 * vtime.Millisecond)
			boosted = s.Self().Priority()
			m.Unlock()
			return nil
		}, nil)

		var waiters []*Thread
		for _, p := range []int{18, 22} {
			attrW := DefaultAttr()
			attrW.Priority = p
			th, _ := s.Create(attrW, func(any) any {
				m.Lock()
				c.Wait(m)
				m.Unlock()
				return nil
			}, nil)
			waiters = append(waiters, th)
		}
		// Waiters run first (higher priority), wait on c releasing m;
		// the holder locks m; now broadcast.
		s.Sleep(vtime.Millisecond)
		c.Broadcast()
		s.Join(holder)
		for _, th := range waiters {
			s.Join(th)
		}
		if boosted != 22 {
			t.Fatalf("holder boosted to %d, want 22", boosted)
		}
	})
}

func TestTimerForTerminatedArmerFallsThrough(t *testing.T) {
	// An alarm whose armer exited before expiry must not crash; with no
	// handler it is simply discarded by the delivery rules or pends.
	runSystem(t, func(s *System) {
		s.SigactionIgnore(unixkern.SIGALRM)
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			s.Alarm(2 * vtime.Millisecond)
			return nil // exits before the alarm fires
		}, nil)
		s.Join(th)
		s.Sleep(5 * vtime.Millisecond) // alarm fires now
	})
}

func TestKillTerminatedThreadESRCH(t *testing.T) {
	runSystem(t, func(s *System) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any { return nil }, nil)
		err := s.Kill(th, unixkern.SIGUSR1)
		if e, _ := AsErrno(err); e != ESRCH {
			t.Fatalf("Kill terminated: %v", err)
		}
		s.Join(th)
	})
}

func TestJoinAfterHandleReclaimedESRCH(t *testing.T) {
	runSystem(t, func(s *System) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any { return 1 }, nil)
		if v, err := s.Join(th); err != nil || v != 1 {
			t.Fatalf("first join: %v %v", v, err)
		}
		if _, err := s.Join(th); err == nil {
			t.Fatal("join of reclaimed handle succeeded")
		}
		if err := s.Cancel(th); err == nil {
			t.Fatal("cancel of reclaimed handle succeeded")
		}
	})
}

func TestThreadPendingSetReclaimedEmpty(t *testing.T) {
	runSystem(t, func(s *System) {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR1))
			s.Kill(s.Self(), unixkern.SIGUSR1) // pends, and is never taken
			return nil
		}, nil)
		if !s.ThreadPendingSet(th).Has(unixkern.SIGUSR1) {
			t.Fatal("signal not pended on the exited thread")
		}
		s.Join(th)
		if set := s.ThreadPendingSet(th); !set.Empty() {
			t.Fatalf("reclaimed handle reports pending %v, want none", set)
		}
		if th.pending != nil {
			t.Fatal("reclaim kept the pending-signal table")
		}
	})
}

func TestCeilingGrantBoostsWaiter(t *testing.T) {
	// A waiter granted a ceiling mutex at unlock gets the ceiling boost
	// applied at grant time.
	runSystem(t, func(s *System) {
		m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolCeiling, Ceiling: 28})
		m.Lock()
		var during int
		attr := DefaultAttr()
		attr.Priority = 20
		th, _ := s.Create(attr, func(any) any {
			m.Lock()
			during = s.Self().Priority()
			m.Unlock()
			return nil
		}, nil)
		s.Sleep(vtime.Millisecond) // waiter blocks
		m.Unlock()
		s.Join(th)
		if during != 28 {
			t.Fatalf("granted waiter priority %d, want ceiling 28", during)
		}
	})
}

func TestYieldAloneIsNoop(t *testing.T) {
	runSystem(t, func(s *System) {
		before := s.Stats().ContextSwitches
		s.Yield()
		if s.Stats().ContextSwitches != before {
			t.Fatal("yield with no peers context-switched")
		}
	})
}

func TestSigactionReplaceAndDefault(t *testing.T) {
	count := 0
	runSystem(t, func(s *System) {
		h := func(unixkern.Signal, *unixkern.SigInfo, *SigContext) { count++ }
		s.Sigaction(unixkern.SIGUSR1, h, 0)
		s.Kill(s.Self(), unixkern.SIGUSR1)
		s.SigactionIgnore(unixkern.SIGUSR1)
		s.Kill(s.Self(), unixkern.SIGUSR1) // discarded
		s.Sigaction(unixkern.SIGUSR1, h, 0)
		s.Kill(s.Self(), unixkern.SIGUSR1)
	})
	if count != 2 {
		t.Fatalf("handler ran %d times, want 2", count)
	}
}
