package hw

import (
	"testing"
	"testing/quick"

	"pthreads/internal/vtime"
)

func newCPU(t *testing.T) *CPU {
	t.Helper()
	return NewCPU(SPARCstationIPX(), vtime.NewClock())
}

func TestChargePrimitives(t *testing.T) {
	c := newCPU(t)
	m := c.Model
	start := c.Clock.Now()
	c.ChargeInstr(10)
	if d := c.Clock.Now().Sub(start); int64(d) != 10*m.InstrNS {
		t.Fatalf("instr charge %v", d)
	}
	c.ChargeSyscall()
	c.ChargeFlushWindows()
	c.ChargeWindowUnderflow()
	c.ChargeSignalDeliver()
	c.ChargeSigreturn()
	c.ChargeProcessSwitch()
	c.ChargeHeapAlloc()
	want := 10*m.InstrNS + m.SyscallNS + m.FlushWindowsTrapNS + m.WindowUnderflowTrapNS +
		m.SignalDeliverNS + m.SigreturnNS + m.ProcessSwitchNS + m.HeapAllocNS
	if d := c.Clock.Now().Sub(start); int64(d) != want {
		t.Fatalf("total charge %v, want %dns", d, want)
	}
	if c.Syscalls != 1 || c.FlushTraps != 1 || c.UnderflowTraps != 1 || c.HeapAllocs != 1 {
		t.Fatal("counters wrong")
	}
}

func TestNegativeChargePanics(t *testing.T) {
	c := newCPU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Charge(-1)
}

func TestMachinePresetsOrdered(t *testing.T) {
	ipx, one := SPARCstationIPX(), SPARCstation1Plus()
	if ipx.InstrNS >= one.InstrNS {
		t.Fatal("IPX should be faster per instruction")
	}
	if ipx.SyscallNS >= one.SyscallNS || ipx.FlushWindowsTrapNS >= one.FlushWindowsTrapNS {
		t.Fatal("IPX should have cheaper kernel crossings")
	}
	if ipx.Name == one.Name || ipx.Name == "" {
		t.Fatal("names wrong")
	}
}

func TestTASAcquireRelease(t *testing.T) {
	c := newCPU(t)
	a := NewAtomics(c)
	var w Word
	if !a.TAS(&w) {
		t.Fatal("TAS on zero word failed")
	}
	if a.TAS(&w) {
		t.Fatal("TAS on set word succeeded")
	}
	w.Store(0)
	if !a.TAS(&w) {
		t.Fatal("TAS after release failed")
	}
	if c.TASOps != 3 {
		t.Fatalf("TASOps = %d", c.TASOps)
	}
}

func TestCASRecordsOwner(t *testing.T) {
	c := newCPU(t)
	a := NewAtomics(c)
	var w Word
	if !a.CAS(&w, 42) {
		t.Fatal("CAS on zero failed")
	}
	if w.Load() != 42 {
		t.Fatalf("owner = %d", w.Load())
	}
	if a.CAS(&w, 7) {
		t.Fatal("CAS on held word succeeded")
	}
	if w.Load() != 42 {
		t.Fatal("CAS overwrote owner")
	}
}

func TestCASCostsMoreThanTAS(t *testing.T) {
	c1 := newCPU(t)
	a1 := NewAtomics(c1)
	var w1 Word
	a1.TAS(&w1)
	tas := c1.Clock.Now()

	c2 := newCPU(t)
	a2 := NewAtomics(c2)
	var w2 Word
	a2.CAS(&w2, 1)
	cas := c2.Clock.Now()
	if cas <= tas {
		t.Fatalf("CAS (%v) should cost more than TAS (%v)", cas, tas)
	}
}

func TestLockRAS(t *testing.T) {
	c := newCPU(t)
	a := NewAtomics(c)
	var lock, owner Word
	if !a.LockRAS(&lock, &owner, 7) {
		t.Fatal("LockRAS on free mutex failed")
	}
	if owner.Load() != 7 {
		t.Fatalf("owner = %d", owner.Load())
	}
	if a.LockRAS(&lock, &owner, 8) {
		t.Fatal("LockRAS on held mutex succeeded")
	}
	if owner.Load() != 7 {
		t.Fatal("failed lock clobbered owner")
	}
}

func TestRASRestart(t *testing.T) {
	c := newCPU(t)
	a := NewAtomics(c)
	if a.InterruptRAS() {
		t.Fatal("interrupt outside RAS reported restart")
	}
	if a.Restarts != 0 {
		t.Fatal("restart counted outside sequence")
	}
	// Force one restart by interrupting from "inside": simulate by
	// setting the interrupted flag through InterruptRAS during a
	// sequence is not reachable from outside, so exercise the public
	// behaviour: after a normal lock no restart happened.
	var lock, owner Word
	a.LockRAS(&lock, &owner, 1)
	if a.Restarts != 0 {
		t.Fatalf("Restarts = %d", a.Restarts)
	}
	if a.inRAS {
		t.Fatal("sequence left open")
	}
}

func TestStackPushPop(t *testing.T) {
	s := NewStack(4096)
	if s.Depth() != 1 || s.Top().Kind != FrameBase {
		t.Fatal("base frame missing")
	}
	if err := s.Push(Frame{Kind: FrameInterrupt, Size: InterruptFrameSize}); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(Frame{Kind: FrameFakeCall, Size: FakeCallFrameSize}); err != nil {
		t.Fatal(err)
	}
	kinds := map[FrameKind]int{}
	for _, f := range s.frames {
		kinds[f.Kind]++
	}
	if kinds[FrameInterrupt] != 1 || kinds[FrameFakeCall] != 1 {
		t.Fatalf("frame kinds %v", kinds)
	}
	f := s.Pop()
	if f.Kind != FrameFakeCall {
		t.Fatalf("popped %v", f.Kind)
	}
	s.Pop()
	if s.Depth() != 1 {
		t.Fatalf("Depth = %d", s.Depth())
	}
}

func TestStackOverflow(t *testing.T) {
	s := NewStack(MinStackSize)
	var err error
	for i := 0; i < 100; i++ {
		err = s.Push(Frame{Kind: FrameInterrupt, Size: InterruptFrameSize})
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("no overflow after 100 interrupt frames on a minimal stack")
	}
	if _, ok := err.(*ErrStackOverflow); !ok {
		t.Fatalf("error type %T", err)
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestStackPopBasePanics(t *testing.T) {
	s := NewStack(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic popping base frame")
		}
	}()
	s.Pop()
}

func TestStackReset(t *testing.T) {
	s := NewStack(4096)
	s.Push(Frame{Kind: FrameFakeCall, Size: FakeCallFrameSize})
	s.Reset()
	if s.Depth() != 1 || s.SP != 4096-BaseFrameSize || s.HighWater != BaseFrameSize {
		t.Fatalf("Reset: depth=%d sp=%d hw=%d", s.Depth(), s.SP, s.HighWater)
	}
}

// TestNewStackOneAlloc pins a new stack at one host allocation: the
// base frame and the first interrupt frame sit in the stack's own
// two-element array, and only a third frame moves the frames out.
func TestNewStackOneAlloc(t *testing.T) {
	var s *Stack
	if n := testing.AllocsPerRun(100, func() { s = NewStack(DefaultStackSize) }); n != 1 {
		t.Errorf("NewStack allocates %.1f times, want 1", n)
	}
	if s.Depth() != 1 || s.Top().Kind != FrameBase || s.SP != DefaultStackSize-BaseFrameSize {
		t.Errorf("new stack: depth %d, top %v, SP %d", s.Depth(), s.Top().Kind, s.SP)
	}
	interrupt := func() {
		s = NewStack(DefaultStackSize)
		if err := s.Push(Frame{Kind: FrameInterrupt, Size: InterruptFrameSize}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, interrupt); n != 1 {
		t.Errorf("NewStack plus an interrupt frame allocates %.1f times, want 1", n)
	}
	if s.Depth() != 2 || s.frames[0].Kind != FrameBase || &s.frames[0] != &s.base[0] {
		t.Errorf("second push left the inline frames: depth %d", s.Depth())
	}
	if err := s.Push(Frame{Kind: FrameFakeCall, Size: FakeCallFrameSize}); err != nil || s.Depth() != 3 || s.frames[1].Kind != FrameInterrupt {
		t.Errorf("third push: %v, depth %d", err, s.Depth())
	}
}

func TestStackHighWater(t *testing.T) {
	s := NewStack(4096)
	s.Push(Frame{Kind: FrameInterrupt, Size: InterruptFrameSize})
	s.Pop()
	want := int64(BaseFrameSize + InterruptFrameSize)
	if s.HighWater != want {
		t.Fatalf("HighWater = %d, want %d", s.HighWater, want)
	}
}

// Property: SP always equals Size minus the sum of pushed frame sizes,
// and never goes negative.
func TestStackSPInvariantProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewStack(1 << 20)
		sum := int64(BaseFrameSize)
		for _, raw := range sizes {
			size := int64(raw)
			before := s.SP
			if err := s.Push(Frame{Kind: FrameFakeCall, Size: size}); err != nil {
				// Overflow must leave the stack untouched.
				return s.SP == before
			}
			sum += size
			if s.SP != s.Size-sum || s.SP < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLockPrimitiveString(t *testing.T) {
	for p, want := range map[LockPrimitive]string{
		TASOnly:        "ldstub",
		TASWithRAS:     "ldstub+RAS",
		CompareAndSwap: "compare-and-swap",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

func TestFrameKindString(t *testing.T) {
	if FrameBase.String() != "base" || FrameInterrupt.String() != "interrupt" || FrameFakeCall.String() != "fake-call" {
		t.Fatal("FrameKind strings wrong")
	}
}
