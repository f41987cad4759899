package unixkern

import (
	"testing"
	"testing/quick"

	"pthreads/internal/hw"
)

func newKern(t *testing.T) *Kernel {
	t.Helper()
	return New(hw.SPARCstationIPX())
}

func TestSignalNames(t *testing.T) {
	if SIGHUP.String() != "SIGHUP" || SIGUSR2.String() != "SIGUSR2" || SIGCANCEL.String() != "SIGCANCEL" {
		t.Fatal("names wrong")
	}
	if Signal(99).String() != "SIG#99" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestSignalClassification(t *testing.T) {
	if !SIGSEGV.Synchronous() || SIGALRM.Synchronous() {
		t.Fatal("Synchronous wrong")
	}
	if SIGKILL.Maskable() || SIGSTOP.Maskable() || !SIGINT.Maskable() {
		t.Fatal("Maskable wrong")
	}
	if SIGCANCEL.Valid() || !SIGUSR1.Valid() || Signal(0).Valid() {
		t.Fatal("Valid wrong")
	}
}

func TestSigsetOps(t *testing.T) {
	s := MakeSigset(SIGINT, SIGALRM)
	if !s.Has(SIGINT) || !s.Has(SIGALRM) || s.Has(SIGHUP) {
		t.Fatal("Has wrong")
	}
	s = s.Del(SIGINT)
	if s.Has(SIGINT) {
		t.Fatal("Del wrong")
	}
	u := s.Union(MakeSigset(SIGHUP))
	if !u.Has(SIGHUP) || !u.Has(SIGALRM) {
		t.Fatal("Union wrong")
	}
	m := u.Minus(MakeSigset(SIGALRM))
	if m.Has(SIGALRM) || !m.Has(SIGHUP) {
		t.Fatal("Minus wrong")
	}
	if !(Sigset(0)).Empty() || u.Empty() {
		t.Fatal("Empty wrong")
	}
	sigs := MakeSigset(SIGQUIT, SIGHUP).Signals()
	if len(sigs) != 2 || sigs[0] != SIGHUP || sigs[1] != SIGQUIT {
		t.Fatalf("Signals = %v", sigs)
	}
	if MakeSigset(SIGINT).String() != "{SIGINT}" {
		t.Fatalf("String = %s", MakeSigset(SIGINT).String())
	}
}

// TestFullSigsetMatchesLoop checks the constant against the set built
// signal by signal.
func TestFullSigsetMatchesLoop(t *testing.T) {
	var want Sigset
	for sig := Signal(1); sig < NSIGAll; sig++ {
		if sig == SIGKILL || sig == SIGSTOP {
			continue
		}
		want = want.Add(sig)
	}
	if got := FullSigset(); got != want {
		t.Fatalf("FullSigset = %#x, want %#x", uint64(got), uint64(want))
	}
}

func TestFullSigsetExcludesKillStop(t *testing.T) {
	f := FullSigset()
	if f.Has(SIGKILL) || f.Has(SIGSTOP) {
		t.Fatal("FullSigset includes unmaskable signals")
	}
	if !f.Has(SIGHUP) || !f.Has(SIGCANCEL) {
		t.Fatal("FullSigset missing maskable signals")
	}
}

func TestGetpidChargesSyscall(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	before := k.Clock.Now()
	if p.Getpid() != p.Pid {
		t.Fatal("Getpid wrong")
	}
	if d := k.Clock.Now().Sub(before); int64(d) != k.CPU.Model.SyscallNS {
		t.Fatalf("getpid cost %v", d)
	}
	if k.SyscallCounts["getpid"] != 1 {
		t.Fatal("syscall not counted")
	}
}

func TestHandlerDelivery(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var got []Signal
	p.Sigvec(SIGUSR1, func(sig Signal, info *SigInfo) {
		got = append(got, sig)
		if info.Cause != CauseKill {
			t.Errorf("cause = %v", info.Cause)
		}
	}, 0)
	if err := k.Kill(p.Pid, SIGUSR1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != SIGUSR1 {
		t.Fatalf("got %v", got)
	}
	if k.Delivered != 1 {
		t.Fatal("Delivered not counted")
	}
}

func TestMaskedSignalPends(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	n := 0
	p.Sigvec(SIGUSR1, func(Signal, *SigInfo) { n++ }, 0)
	p.Sigsetmask(MakeSigset(SIGUSR1))
	k.Kill(p.Pid, SIGUSR1)
	if n != 0 {
		t.Fatal("masked signal delivered")
	}
	if !p.PendingSet().Has(SIGUSR1) {
		t.Fatal("signal not pending")
	}
	p.Sigsetmask(0) // unblock: flushes pending
	if n != 1 {
		t.Fatalf("pending not flushed: n=%d", n)
	}
	if !p.PendingSet().Empty() {
		t.Fatal("pending not cleared")
	}
}

func TestPendingSignalLost(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	p.Sigvec(SIGUSR1, func(Signal, *SigInfo) {}, 0)
	p.Sigsetmask(MakeSigset(SIGUSR1))
	k.Kill(p.Pid, SIGUSR1)
	k.Kill(p.Pid, SIGUSR1) // second instance lost: one pending slot
	if k.LostSignals != 1 {
		t.Fatalf("LostSignals = %d", k.LostSignals)
	}
}

func TestHandlerMasksItself(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	depth := 0
	maxDepth := 0
	reraised := false
	p.Sigvec(SIGUSR1, func(Signal, *SigInfo) {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
		if !reraised {
			reraised = true
			// Re-raise: must pend, not nest (BSD masks the signal
			// during its own handler).
			k.Kill(p.Pid, SIGUSR1)
			if depth != 1 {
				t.Error("re-raise nested into the handler")
			}
		}
		depth--
	}, 0)
	k.Kill(p.Pid, SIGUSR1)
	if maxDepth != 1 {
		t.Fatalf("handler nested: depth %d", maxDepth)
	}
}

func TestSigvecMaskBlocksOthers(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var order []Signal
	p.Sigvec(SIGUSR2, func(sig Signal, _ *SigInfo) { order = append(order, sig) }, 0)
	p.Sigvec(SIGUSR1, func(sig Signal, _ *SigInfo) {
		order = append(order, sig)
		k.Kill(p.Pid, SIGUSR2) // blocked by the sigvec mask: pends
		order = append(order, SIGNONE)
	}, MakeSigset(SIGUSR2))
	k.Kill(p.Pid, SIGUSR1)
	// SIGUSR2 must run only after SIGUSR1's handler returned.
	want := []Signal{SIGUSR1, SIGNONE, SIGUSR2}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v", order)
	}
}

func TestIgnoreDiscards(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	p.SigvecIgnore(SIGUSR1)
	k.Kill(p.Pid, SIGUSR1)
	if p.Terminated || !p.PendingSet().Empty() {
		t.Fatal("ignored signal had effect")
	}
}

func TestDefaultActionTerminates(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var gotSig Signal
	p.OnTerminate = func(sig Signal) { gotSig = sig }
	k.Kill(p.Pid, SIGTERM)
	if !p.Terminated || p.TerminateSig != SIGTERM || gotSig != SIGTERM {
		t.Fatal("default action did not terminate")
	}
	// Signals to a dead process are discarded.
	k.Kill(p.Pid, SIGUSR1)
}

func TestDefaultActionDiscardsForChld(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	k.Kill(p.Pid, SIGCHLD)
	if p.Terminated {
		t.Fatal("SIGCHLD terminated the process")
	}
}

func TestKillValidation(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	if err := k.Kill(p.Pid, SIGCANCEL); err == nil {
		t.Fatal("kill with SIGCANCEL allowed")
	}
	if err := k.Kill(999, SIGUSR1); err == nil {
		t.Fatal("kill of unknown pid allowed")
	}
}

func TestSigvecValidation(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	if err := p.Sigvec(SIGKILL, func(Signal, *SigInfo) {}, 0); err == nil {
		t.Fatal("catching SIGKILL allowed")
	}
	if err := p.SigvecIgnore(SIGSTOP); err == nil {
		t.Fatal("ignoring SIGSTOP allowed")
	}
}

func TestCrossProcessDeliveryChargesSwitch(t *testing.T) {
	k := newKern(t)
	a := k.NewProcess("a") // running
	b := k.NewProcess("b")
	_ = a
	ran := false
	b.Sigvec(SIGUSR1, func(Signal, *SigInfo) {
		ran = true
		if k.Running != b {
			t.Error("handler ran without process switch")
		}
	}, 0)
	before := k.ProcSwitches
	k.Kill(b.Pid, SIGUSR1)
	if !ran {
		t.Fatal("handler did not run")
	}
	if k.ProcSwitches != before+2 { // there and back
		t.Fatalf("ProcSwitches = %d, want +2", k.ProcSwitches-before)
	}
	if k.Running != a {
		t.Fatal("running process not restored")
	}
}

func TestTimerPostsSignal(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var infos []*SigInfo
	p.Sigvec(SIGALRM, func(_ Signal, info *SigInfo) { infos = append(infos, info) }, 0)
	k.SetTimer(p, SIGALRM, 100, "datum", false)
	if n := k.Poll(); n != 0 {
		t.Fatalf("timer fired early: %d", n)
	}
	k.Clock.Advance(100)
	if n := k.Poll(); n != 1 {
		t.Fatalf("Poll = %d", n)
	}
	if len(infos) != 1 || infos[0].Cause != CauseTimer || infos[0].Datum != "datum" {
		t.Fatalf("info = %+v", infos)
	}
}

func TestCancelTimer(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	n := 0
	p.Sigvec(SIGALRM, func(Signal, *SigInfo) { n++ }, 0)
	id := k.SetTimer(p, SIGALRM, 100, nil, false)
	if !k.CancelTimer(id) {
		t.Fatal("CancelTimer failed")
	}
	k.Clock.Advance(200)
	k.Poll()
	if n != 0 {
		t.Fatal("cancelled timer fired")
	}
}

func TestQuantumTimerUncharged(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	before := k.Clock.Now()
	id := k.ArmQuantum(p, 100, nil)
	k.DisarmQuantum(id)
	id2 := k.SetTimerInternal(p, SIGALRM, 100, nil)
	k.DisarmInternal(id2)
	if k.Clock.Now() != before {
		t.Fatal("internal timers charged time")
	}
	if k.SyscallCounts["setitimer"] != 0 {
		t.Fatal("internal timers counted as syscalls")
	}
}

func TestTimeSliceFlag(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var got *SigInfo
	p.Sigvec(SIGALRM, func(_ Signal, info *SigInfo) { got = info }, 0)
	k.ArmQuantum(p, 50, "thread")
	k.Clock.Advance(50)
	k.Poll()
	if got == nil || !got.TimeSlice || got.Datum != "thread" {
		t.Fatalf("quantum info = %+v", got)
	}
}

func TestAioCompletion(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var got *SigInfo
	p.Sigvec(SIGIO, func(_ Signal, info *SigInfo) { got = info }, 0)
	id := k.Aio(p, 500, 4096, "req")
	if _, ok := k.AioResult(id); ok {
		t.Fatal("result before completion")
	}
	k.Clock.Advance(500)
	k.Poll()
	if got == nil || got.Cause != CauseIO || got.Datum != "req" {
		t.Fatalf("SIGIO info = %+v", got)
	}
	n, ok := k.AioResult(id)
	if !ok || n != 4096 {
		t.Fatalf("AioResult = %d, %v", n, ok)
	}
	if _, ok := k.AioResult(id); ok {
		t.Fatal("result consumed twice")
	}
}

func TestRestoreMaskNoSyscall(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	p.Sigsetmask(MakeSigset(SIGUSR1))
	count := k.SyscallCounts["sigsetmask"]
	p.RestoreMask(0)
	if k.SyscallCounts["sigsetmask"] != count {
		t.Fatal("RestoreMask charged a syscall")
	}
	if !p.Mask().Empty() {
		t.Fatal("mask not restored")
	}
}

func TestSigblockAddsToMask(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	p.Sigsetmask(MakeSigset(SIGUSR1))
	old := p.Sigblock(MakeSigset(SIGUSR2))
	if !old.Has(SIGUSR1) || old.Has(SIGUSR2) {
		t.Fatal("Sigblock old mask wrong")
	}
	if !p.Mask().Has(SIGUSR1) || !p.Mask().Has(SIGUSR2) {
		t.Fatal("Sigblock result wrong")
	}
}

func TestRaiseSync(t *testing.T) {
	k := newKern(t)
	p := k.NewProcess("p")
	var got *SigInfo
	p.Sigvec(SIGSEGV, func(_ Signal, info *SigInfo) { got = info }, 0)
	k.RaiseSync(SIGSEGV, 42)
	if got == nil || got.Cause != CauseSync || got.Code != 42 {
		t.Fatalf("sync info = %+v", got)
	}
}

// Property: Sigset Add/Del/Has behave like a set for all valid signals.
func TestSigsetProperty(t *testing.T) {
	f := func(adds, dels []uint8) bool {
		var s Sigset
		model := map[Signal]bool{}
		for _, a := range adds {
			sig := Signal(int(a)%(NSIGAll-1) + 1)
			s = s.Add(sig)
			model[sig] = true
		}
		for _, d := range dels {
			sig := Signal(int(d)%(NSIGAll-1) + 1)
			s = s.Del(sig)
			delete(model, sig)
		}
		for sig := Signal(1); sig < NSIGAll; sig++ {
			if s.Has(sig) != model[sig] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a masked then unmasked signal is delivered exactly once.
func TestMaskFlushDeliversOnceProperty(t *testing.T) {
	f := func(sigRaw uint8) bool {
		sig := Signal(int(sigRaw)%(NSIG-1) + 1)
		if !sig.Maskable() {
			return true
		}
		k := New(hw.SPARCstationIPX())
		p := k.NewProcess("p")
		n := 0
		p.Sigvec(sig, func(Signal, *SigInfo) { n++ }, 0)
		p.Sigsetmask(MakeSigset(sig))
		k.Kill(p.Pid, sig)
		p.Sigsetmask(0)
		return n == 1 && p.PendingSet().Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
