package unixkern

import (
	"testing"

	"pthreads/internal/hw"
	"pthreads/internal/vtime"
)

// Multi-kernel isolation: the fabric instantiates one Kernel per
// simulated host, so nothing in this package may live in package-level
// state. Two kernels driven side by side — with interleaved operations
// — must keep fully independent clocks, pid spaces, fd tables, signal
// state, timers, and counters. (The audit behind this test: the only
// package-level vars in unixkern and vtime are immutable lookup tables
// and sentinels; every free list, counter, and id allocator hangs off
// the Kernel or Process struct.)

func TestTwoKernelsSideBySide(t *testing.T) {
	ka := New(hw.SPARCstationIPX())
	kb := New(hw.SPARCstationIPX())

	// Pid spaces are per-kernel: both start at 1.
	pa := ka.NewProcess("a0")
	pb := kb.NewProcess("b0")
	pa2 := ka.NewProcess("a1")
	if pa.Pid != 1 || pb.Pid != 1 || pa2.Pid != 2 {
		t.Fatalf("pid spaces not independent: a0=%d b0=%d a1=%d", pa.Pid, pb.Pid, pa2.Pid)
	}

	// FD tables are per-process, interleaved allocation does not bleed.
	fa := pa.AllocFD("a-obj")
	fb := pb.AllocFD("b-obj")
	if fa != fb {
		t.Fatalf("first fd differs across kernels: %d vs %d", fa, fb)
	}
	if obj, ok := pa.FDObject(fa); !ok || obj != "a-obj" {
		t.Fatalf("kernel A fd %d resolves to %v", fa, obj)
	}
	if obj, ok := pb.FDObject(fb); !ok || obj != "b-obj" {
		t.Fatalf("kernel B fd %d resolves to %v", fb, obj)
	}
	if pa.OpenFDCount() != 1 || pb.OpenFDCount() != 1 {
		t.Fatalf("fd counts: a=%d b=%d, want 1/1", pa.OpenFDCount(), pb.OpenFDCount())
	}

	// Clocks advance independently.
	ka.Clock.AdvanceTo(5 * vtime.Time(vtime.Millisecond))
	if now := kb.Clock.Now(); now != 0 {
		t.Fatalf("advancing kernel A moved kernel B's clock to %v", now)
	}

	// Timers armed on one kernel are invisible to the other.
	ka.SetTimer(pa, SIGALRM, vtime.Duration(vtime.Millisecond), nil, false)
	if _, ok := kb.NextEventAt(); ok {
		t.Fatalf("kernel B sees kernel A's timer")
	}
	// SetTimer charges the syscall before arming, so the expiry is
	// exactly one period past the post-charge clock.
	at, ok := ka.NextEventAt()
	if want := ka.Clock.Now().Add(vtime.Duration(vtime.Millisecond)); !ok || at != want {
		t.Fatalf("kernel A timer at %v (ok=%v), want %v", at, ok, want)
	}

	// Signal delivery and its counters stay per-kernel.
	got := 0
	if err := pa.Sigvec(SIGALRM, func(sig Signal, info *SigInfo) { got++ }, 0); err != nil {
		t.Fatalf("sigvec: %v", err)
	}
	ka.Clock.AdvanceTo(at)
	ka.Poll()
	if got != 1 {
		t.Fatalf("kernel A delivered %d SIGALRMs, want 1", got)
	}
	if kb.Delivered != 0 || kb.LostSignals != 0 {
		t.Fatalf("kernel B counters moved: delivered=%d lost=%d", kb.Delivered, kb.LostSignals)
	}
	if ka.Delivered == 0 {
		t.Fatalf("kernel A delivery not counted")
	}

	// Syscall accounting is per-kernel too: the fd traffic above went
	// through CountSyscall on its own kernel only.
	aCalls, bCalls := int64(0), int64(0)
	for _, n := range ka.SyscallCounts {
		aCalls += n
	}
	for _, n := range kb.SyscallCounts {
		bCalls += n
	}
	if aCalls == 0 {
		t.Fatalf("kernel A recorded no syscalls")
	}
	if aCalls == bCalls {
		t.Fatalf("syscall counters identical (%d) — shared state suspected", aCalls)
	}

	// Killing in one pid space does not cross machines: pid 2 exists
	// only on kernel A.
	if err := kb.Kill(pa2.Pid, SIGALRM); err == nil {
		t.Fatalf("kernel B delivered a signal to kernel A's pid %d", pa2.Pid)
	}
}
