package core

import (
	"runtime"
	"slices"
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Coverage for the per-descriptor wait lists: within a level they wake
// in arrival order, and they own no memory of their own — a park
// allocates nothing once the shard row exists, and nothing stays behind
// once the waiters leave. The list itself is checked against sched.Queue
// in waitlist_test.go.

// TestFDWaitEqualPriorityArrivalOrder parks three waiters of one
// priority on one descriptor and wakes them one completion at a time:
// within a level the wait list is FIFO, so they wake in arrival order.
func TestFDWaitEqualPriorityArrivalOrder(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		fd := s.Process().AllocFD(nil)
		box := &fdTokenBox{}
		// Each worker outranks main, so it runs and parks as it is
		// created: arrival order is creation order.
		prio := s.Self().Priority() + 2
		var ths []*Thread
		for i := 0; i < 3; i++ {
			ths = append(ths, s.fdParkWorker(t, fd, i, prio, box))
		}
		if d := s.FDWaitDepth(fd, FDRead); d != 3 {
			t.Errorf("wait depth = %d, want 3", d)
		}
		src := &scaleSource{ready: make([]unixkern.IOReady, 0, 1)}
		for range ths {
			box.tokens++
			wakeOne(s, src, fd, false)
		}
		for _, th := range ths {
			s.Join(th)
		}
		if want := []int{0, 1, 2}; !slices.Equal(box.order, want) {
			t.Errorf("wake order %v, want arrival order %v", box.order, want)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// fdGate is a jacket attempt that completes once the gate is open.
type fdGate struct{ open bool }

func (g *fdGate) Attempt() (done, more bool) { return g.open, false }

// fdFreshParkers allocates n descriptors and creates n continuation
// threads; thread i sleeps until start + i·step and then parks on
// descriptor i behind the gate. start lies n ms ahead, well past the
// creations (about 165 µs each). Beforehand, one waiter parks on (and
// leaves) each of fdwShardCount extra descriptors numbered above the n,
// one per shard, so every shard's row table already covers the n
// descriptors — none of which has ever had a waiter.
func (s *System) fdFreshParkers(n int, gate *fdGate, step vtime.Duration) (fds []unixkern.FD, ths []*Thread, start vtime.Time) {
	start = s.Now().Add(vtime.Duration(n) * vtime.Millisecond)
	p := s.Process()
	fds = make([]unixkern.FD, n+fdwShardCount)
	for i := range fds {
		fds[i] = p.AllocFD(nil)
	}
	attr := DefaultAttr()
	attr.Priority = s.Self().Priority() + 1
	var rows fdGate
	var rowThs []*Thread
	for _, fd := range fds[n:] {
		th, err := s.CreateCont(attr, func(k *Cont) { k.FDOp(fd, VerbRead, 0, &rows, nil) }, nil)
		if err != nil {
			panic(err)
		}
		rowThs = append(rowThs, th)
	}
	rows.open = true
	for _, fd := range fds[n:] {
		s.FDKickAll(fd)
	}
	for _, th := range rowThs {
		s.Join(th)
	}

	// One pair of steps for all threads, indexed by Arg, so no per-thread
	// closure is freed while the callers measure the heap.
	park := func(k *Cont) { k.FDOp(fds[k.Arg.(int)], VerbRead, 0, gate, nil) }
	sleep := func(k *Cont) {
		k.Sleep(start.Add(vtime.Duration(k.Arg.(int))*step).Sub(s.Now()), park)
	}
	ths = make([]*Thread, n)
	for i := range ths {
		th, err := s.CreateCont(attr, sleep, i)
		if err != nil {
			panic(err)
		}
		ths[i] = th
	}
	return fds[:n], ths, start
}

// TestFDParkFreshDescriptorAllocatesNothing counts the heap allocations
// of parks on descriptors that never had a waiter: the list links live
// in the waiter's TCB, so once the shard row exists a park allocates
// nothing.
func TestFDParkFreshDescriptorAllocatesNothing(t *testing.T) {
	const (
		batch  = 32
		warmup = 2
		rounds = 8
		n      = batch * (warmup + rounds)
		step   = vtime.Millisecond // several parks' worth of virtual time
	)
	s := New(Config{})
	err := s.Run(func() {
		gate := &fdGate{}
		fds, ths, start := s.fdFreshParkers(n, gate, step)
		waits0 := s.Stats().FDWaits
		next := start
		round := func() {
			next = next.Add(batch * step)
			s.Sleep(next.Sub(s.Now()) - step/2)
			if got := s.Stats().FDWaits - waits0; got != int64(next.Sub(start)/step) {
				t.Errorf("%d parks by %v, want %d", got, next, next.Sub(start)/step)
			}
		}
		if got := allocsPerRound(warmup, rounds, round); got != 0 {
			t.Errorf("parks on fresh descriptors allocated %d times per round of %d (want 0)", got, batch)
		}
		if got := s.Stats().FDWaits - waits0; got != n {
			t.Errorf("fd waits = %d, want %d", got, n)
		}
		gate.open = true
		for _, fd := range fds {
			s.FDKickAll(fd)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitRetainsNothingPerDescriptor parks 10,000 waiters, each on
// its own descriptor, wakes them all and lets them exit, then measures
// the host heap retained after a GC the way RunC1M measures a resident.
// The shard rows and the threads themselves exist before the baseline;
// the heap is read again before the joins, since reclaim frees each
// thread's stack and would hide what the wait lists kept.
func TestFDWaitRetainsNothingPerDescriptor(t *testing.T) {
	const n = 10000
	s := New(Config{})
	err := s.Run(func() {
		gate := &fdGate{}
		fds, ths, start := s.fdFreshParkers(n, gate, vtime.Millisecond)
		if got := s.Stats().FDWaits; got != fdwShardCount {
			t.Errorf("%d parks before the baseline, want only the %d row warm-ups", got, fdwShardCount)
			return
		}

		runtime.GC()
		var h0, h1 runtime.MemStats
		runtime.ReadMemStats(&h0)

		s.Sleep(start.Add(n * vtime.Millisecond).Sub(s.Now()))
		if st := s.Stats(); st.FDMaxWaitDepth != 1 {
			t.Errorf("max wait depth = %d, want 1 (one waiter per descriptor)", st.FDMaxWaitDepth)
		}
		for _, fd := range fds {
			if d := s.FDWaitDepth(fd, FDRead); d != 1 {
				t.Errorf("fd %d: wait depth %d, want 1", fd, d)
				return
			}
		}
		gate.open = true
		for _, fd := range fds {
			s.FDKickAll(fd)
		}
		s.Sleep(vtime.Millisecond)
		for _, th := range ths {
			if th.State() != StateTerminated {
				t.Errorf("%v is %v after its wake, want terminated", th, th.State())
				return
			}
		}

		runtime.GC()
		runtime.ReadMemStats(&h1)
		if per := (float64(h1.HeapAlloc) - float64(h0.HeapAlloc)) / n; per >= 64 {
			t.Errorf("fd waits retained %.1f B per descriptor after the waiters left, want < 64", per)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
