package core

import (
	"testing"

	"pthreads/internal/vtime"
)

// Regression: a quantum far smaller than the dispatch and signal-return
// overhead must still make progress — the quantum measures user
// execution (ITIMER_VIRTUAL style), so overhead-only intervals re-arm
// instead of thrashing.
func TestTinyQuantumStillProgresses(t *testing.T) {
	s := New(Config{Quantum: 2 * vtime.Microsecond, MainPolicy: SchedRR})
	doneA, doneB := false, false
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Policy = SchedRR
		attr.Name = "A"
		a, _ := s.Create(attr, func(any) any {
			s.Compute(10 * vtime.Microsecond)
			doneA = true
			return nil
		}, nil)
		attr.Name = "B"
		b, _ := s.Create(attr, func(any) any {
			s.Compute(10 * vtime.Microsecond)
			doneB = true
			return nil
		}, nil)
		s.Join(a)
		s.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !doneA || !doneB {
		t.Fatal("computation never completed")
	}
	if s.Stats().ContextSwitches == 0 {
		t.Fatal("no interleaving at all")
	}
}

// A tiny quantum interleaves two computing threads many times.
func TestTinyQuantumInterleaves(t *testing.T) {
	var order []string
	s := New(Config{Quantum: 5 * vtime.Microsecond})
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Policy = SchedRR
		mk := func(name string) *Thread {
			attr.Name = name
			th, _ := s.Create(attr, func(any) any {
				for i := 0; i < 5; i++ {
					s.Compute(5 * vtime.Microsecond)
					order = append(order, name)
				}
				return nil
			}, nil)
			return th
		}
		a := mk("a")
		b := mk("b")
		s.Join(a)
		s.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			swaps++
		}
	}
	if swaps < 3 {
		t.Fatalf("only %d alternations in %v", swaps, order)
	}
}

// The quantum does not expire across kernel-heavy phases with no user
// computation: a thread doing many lock/unlock pairs is not penalized.
func TestQuantumMeasuresUserTimeOnly(t *testing.T) {
	s := New(Config{Quantum: vtime.Microsecond})
	err := s.Run(func() {
		m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolInherit})
		attr := DefaultAttr()
		attr.Policy = SchedRR
		attr.Name = "kernelheavy"
		th, _ := s.Create(attr, func(any) any {
			for i := 0; i < 50; i++ {
				m.Lock()
				m.Unlock()
			}
			return nil
		}, nil)
		s.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Trivial accessors exercised in one place.
func TestAccessorsAndStrings(t *testing.T) {
	runSystem(t, func(s *System) {
		if s.Clock() == nil || s.Process() == nil || s.Kernel() == nil {
			t.Fatal("nil accessors")
		}
		m := s.MustMutex(MutexAttr{Name: "m", Protocol: ProtocolCeiling, Ceiling: 20})
		if m.Protocol() != ProtocolCeiling || m.Ceiling() != 20 {
			t.Fatal("mutex accessors")
		}
		c := s.NewCond("cv")
		if c.Name() != "cv" {
			t.Fatal("cond name")
		}
		if s.Self().ID() == 0 {
			t.Fatal("zero thread id")
		}
		if s.CleanupDepth() != 0 {
			t.Fatal("cleanup depth")
		}
		if s.Self().fakeCalls() != 0 {
			t.Fatal("fake calls")
		}
		s.KernelEnterExit()
	})
	for _, p := range []Protocol{ProtocolNone, ProtocolInherit, ProtocolCeiling, Protocol(9)} {
		_ = p.String()
	}
	for _, p := range []PervertPolicy{PervertNone, PervertMutexSwitch, PervertRROrdered, PervertRandom, PervertPolicy(9)} {
		_ = p.String()
	}
	for _, m := range []MixMode{MixStack, MixLinearSearch} {
		_ = m.String()
	}
	for _, st := range []State{StateNew, StateReady, StateRunning, StateBlocked, StateTerminated, State(9)} {
		_ = st.String()
	}
	for _, br := range []BlockReason{BlockNone, BlockJoin, BlockMutex, BlockCond, BlockSigwait, BlockSleep, BlockIO, BlockSuspend, BlockReason(99)} {
		_ = br.String()
	}
	for _, cs := range []CancelState{CancelControlled, CancelDisabled, CancelAsynchronous, CancelState(9)} {
		_ = cs.String()
	}
	for _, k := range []EventKind{EvState, EvPrio, EvMutex, EvCond, EvSignal, EvCancel, EvUser, EventKind(99)} {
		_ = k.String()
	}
	var nilThread *Thread
	if nilThread.String() != "thread(nil)" {
		t.Fatal("nil thread string")
	}
	if Errno(977).Error() == "" || OK.Or() != nil {
		t.Fatal("errno rendering")
	}
	if _, ok := AsErrno(nil); !ok {
		t.Fatal("AsErrno(nil)")
	}
	if _, ok := AsErrno(errForeign{}); ok {
		t.Fatal("AsErrno foreign")
	}
}

type errForeign struct{}

func (errForeign) Error() string { return "foreign" }
