package eval

import "testing"

// TestC1MInvariantsSmallN runs the resident-footprint scenario at a
// size cheap enough for the tier-1 suite. RunC1M asserts the resource
// invariants internally (all threads parked as continuations, runner
// pool and goroutine delta bounded); this test additionally pins the
// deterministic gauges so a representation regression is visible even
// when the invariant thresholds still hold.
func TestC1MInvariantsSmallN(t *testing.T) {
	const n = 5000
	pt, err := RunC1M(n)
	if err != nil {
		t.Fatalf("RunC1M(%d): %v", n, err)
	}
	if pt.ContParked != n {
		t.Errorf("ContParked = %d, want %d", pt.ContParked, n)
	}
	if pt.RunnerPeak < 1 || pt.RunnerPeak > c1mRunnerBudget {
		t.Errorf("RunnerPeak = %d, want 1..%d", pt.RunnerPeak, c1mRunnerBudget)
	}
	if pt.ArenaChunks < int64(n)/1024 {
		t.Errorf("ArenaChunks = %d: population not arena-backed", pt.ArenaChunks)
	}
	if pt.BytesPerResident <= 0 || pt.BytesPerResident > 4096 {
		t.Errorf("BytesPerResident = %.1f, want (0, 4096]", pt.BytesPerResident)
	}
}

// TestC1MBytesPerResident200K is the resident-footprint tripwire at
// 200,000 residents. A parked thread is a 256 B TCB, a 144 B
// continuation frame and a wait-queue slot, about 434 B of host heap; it
// has no simulated stack, since nothing pushes a frame past its base
// frame, and its argument and exit status are the TCB's slots, not the
// frame's. The bound is that reading plus 15%: a stack built at every
// creation again (80 B) trips it.
func TestC1MBytesPerResident200K(t *testing.T) {
	const n = 200000
	pt, err := RunC1M(n)
	if err != nil {
		t.Fatalf("RunC1M(%d): %v", n, err)
	}
	if pt.BytesPerResident <= 0 || pt.BytesPerResident > 499 {
		t.Errorf("BytesPerResident = %.1f at %d residents, want (0, 499]", pt.BytesPerResident, n)
	}
	t.Logf("%.1f bytes/resident at %d residents, %d arena chunks", pt.BytesPerResident, n, pt.ArenaChunks)
}

// TestC1MOwnSyncObjects is the resident rung where every parked thread
// waits on a mutex and a condition variable of its own, so a resident
// pays a TCB, a continuation frame and two synchronization objects. It
// must stay within 1 KiB of host heap.
func TestC1MOwnSyncObjects(t *testing.T) {
	const n = 20000
	pt, err := runC1M(n, true)
	if err != nil {
		t.Fatalf("runC1M(%d, own): %v", n, err)
	}
	if pt.ContParked != n {
		t.Errorf("ContParked = %d, want %d", pt.ContParked, n)
	}
	if pt.BytesPerResident <= 0 || pt.BytesPerResident > 1024 {
		t.Errorf("BytesPerResident = %.1f with a mutex and cond each, want (0, 1024]", pt.BytesPerResident)
	}
	t.Logf("%.1f bytes/resident with a mutex and cond each", pt.BytesPerResident)
}
