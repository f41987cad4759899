package core

import (
	"runtime"
	"testing"

	"pthreads/internal/vtime"
)

// heapNow returns the live heap after a collection.
func heapNow() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSmallSystemFootprint builds a system and parks 64 continuation
// threads in a cond wait, the shape of a small workload. The heap may
// grow by at most 128 KiB: the kernel's chunked records follow the
// population, so 64 threads pay for a few KiB of chunks, not for
// chunks sized for a large one.
func TestSmallSystemFootprint(t *testing.T) {
	const n, budget = 64, 128 << 10
	h0 := heapNow()
	s := New(Config{})
	var grown int64
	err := s.Run(func() {
		m := s.MustMutex(MutexAttr{Name: "m"})
		c := s.NewCond("c")
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		ths := make([]*Thread, 0, n)
		for i := 0; i < n; i++ {
			th, err := s.CreateCont(attr, func(k *Cont) {
				k.Lock(m, func(k *Cont) {
					k.CondWait(c, m, func(k *Cont) { m.Unlock() })
				})
			}, nil)
			if err != nil {
				t.Errorf("CreateCont: %v", err)
				return
			}
			ths = append(ths, th)
		}
		if got := s.Stats().ContParked; got != n {
			t.Errorf("%d threads parked, want %d", got, n)
		}
		grown = heapNow() - h0
		m.Lock()
		c.Broadcast()
		m.Unlock()
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if grown > budget {
		t.Errorf("New plus %d parked threads grew the heap by %d B, want <= %d", n, grown, budget)
	}
	t.Logf("New plus %d parked threads: %.1f KiB of heap", n, float64(grown)/1024)
}

// stragglerGrowth runs rounds thread creations on one system. Every
// every-th creation is a detached thread that sleeps 1,000 s, so it
// outlives the measurement; the rest are joined at once. It returns the
// heap growth after a collection and the number kept.
func stragglerGrowth(t *testing.T, rounds, every int) (grown int64, kept int) {
	t.Helper()
	s := New(Config{})
	err := s.Run(func() {
		attr := DefaultAttr()
		sleeper := attr
		sleeper.Detached = true
		nop := func(k *Cont) {}
		sleep := func(k *Cont) { k.Sleep(1000*vtime.Second, func(k *Cont) {}) }
		h0 := heapNow()
		for i := 1; i <= rounds; i++ {
			if i%every == 0 {
				if _, err := s.CreateCont(sleeper, sleep, nil); err != nil {
					t.Errorf("CreateCont: %v", err)
					return
				}
				kept++
				continue
			}
			th, err := s.CreateCont(attr, nop, nil)
			if err != nil {
				t.Errorf("CreateCont: %v", err)
				return
			}
			if _, err := s.Join(th); err != nil {
				t.Errorf("Join: %v", err)
				return
			}
		}
		grown = heapNow() - h0
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return grown, kept
}

// TestStragglerFootprint measures what long-lived stragglers cost:
// 200,000 create+join rounds that keep one long sleeper every N
// creations. The TCB arena never returns a slot (a stale handle must
// keep answering ESRCH), so each kept thread pins the chunk it was
// carved from. At N = 1,024 a pinned chunk may cost at most 48 KiB per
// kept thread. The denser rows are logged only: once there is a straggler in every chunk, every TCB
// ever carved stays reachable, and only a handle/body split of the TCB
// bounds that.
func TestStragglerFootprint(t *testing.T) {
	const rounds = 200000
	if testing.Short() {
		t.Skip("200,000 creations per row")
	}
	for _, every := range []int{1024, 256, 64} {
		grown, kept := stragglerGrowth(t, rounds, every)
		per := float64(grown) / float64(kept)
		t.Logf("N = %4d: %4d kept, heap %+.1f MB, %.1f KiB per kept thread", every, kept, float64(grown)/1e6, per/1024)
		if every == 1024 && per > 48<<10 {
			t.Errorf("N = 1024: %.1f KiB of heap per kept thread, want <= 48", per/1024)
		}
	}
}

// TestPRNGBuiltAtFirstDraw checks that a system builds its scheduler
// PRNG only when a draw needs it: only the random-switch policy draws,
// so a system under any other policy never builds the source.
func TestPRNGBuiltAtFirstDraw(t *testing.T) {
	for _, p := range []PervertPolicy{PervertNone, PervertRROrdered, PervertRandom} {
		s := New(Config{Pervert: p, Seed: 7})
		err := s.Run(func() {
			for i := 0; i < 3; i++ {
				th, _ := s.Create(DefaultAttr(), func(any) any {
					s.Compute(vtime.Millisecond)
					return nil
				}, nil)
				defer s.Join(th)
			}
		})
		if err != nil {
			t.Fatalf("policy %v: Run: %v", p, err)
		}
		draws := s.prngDraws
		if built := s.prng != nil; built != (draws > 0) {
			t.Errorf("policy %v: PRNG built = %v after %d draws", p, built, draws)
		}
		if p == PervertRandom && draws == 0 {
			t.Errorf("random-switch run drew nothing")
		}
	}
}
