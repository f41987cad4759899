package core

import (
	"runtime"
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Scale coverage for the per-descriptor wait layer: a thousand-plus
// descriptors with a waiter parked on each, readiness injected through
// the same pooled kernel machinery the socket stack uses, mixed with
// polling callers that find readiness without ever suspending. After
// warmup a wake/re-block round must not allocate at all — the wait
// queues, completions, SigInfos, and timer entries all come from pools.

// scaleSource injects readiness: a reusable NetApplier whose completion
// is staged in place, exactly like the socket layer's pooled sockOps.
type scaleSource struct {
	comp  unixkern.IOCompletion
	ready []unixkern.IOReady
}

func (a *scaleSource) ApplyNet() *unixkern.IOCompletion {
	a.comp.Ready = a.ready
	return &a.comp
}

func TestFDWaitScaleMixedWaiters(t *testing.T) {
	const (
		nBlocked = 1100 // blocked waiters, one per descriptor
		nPolling = 32   // callers that always find readiness immediately
		batch    = 64   // descriptors woken per round
		warmup   = 4
		rounds   = 16
	)
	s := New(Config{PoolSize: nBlocked + nPolling + 2})
	err := s.Run(func() {
		p := s.Process()
		k := s.Kernel()

		fds := make([]unixkern.FD, nBlocked)
		for i := range fds {
			fds[i] = p.AllocFD(nil)
		}
		maxFD := int(fds[nBlocked-1]) + 1
		tokens := make([]int, maxFD)

		// Blocked waiters: each parks on its own descriptor and consumes
		// one readiness token per wake. The attempt closure is built once
		// per thread; steady-state calls reuse it. perFD overshoots the
		// wakes any one descriptor can see during the measured rounds so
		// no waiter exits mid-measurement (thread teardown is not the
		// steady state being measured); the drain phase finishes them.
		perFD := ((warmup+rounds)*batch)/nBlocked + 2
		var ths []*Thread
		for i := 0; i < nBlocked; i++ {
			fd := fds[i]
			th, err := s.Create(DefaultAttr(), func(any) any {
				attempt := func() (bool, bool) {
					if tokens[fd] > 0 {
						tokens[fd]--
						return true, false
					}
					return false, false
				}
				for r := 0; r < perFD; r++ {
					if err := s.FDBlockingCall(fd, VerbRead, 0, attempt); err != nil {
						panic(err)
					}
				}
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}

		// Polling callers: their descriptor is kept permanently ready, so
		// every call succeeds on the first attempt without suspending.
		pollFD := p.AllocFD(nil)
		polls := 0
		for i := 0; i < nPolling; i++ {
			th, err := s.Create(DefaultAttr(), func(any) any {
				attempt := func() (bool, bool) { return true, false }
				for r := 0; r < warmup+rounds; r++ {
					if err := s.FDBlockingCall(pollFD, VerbRead, 0, attempt); err != nil {
						panic(err)
					}
					polls++
					s.Yield()
				}
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}

		// Let every blocked waiter park (the pollers run to completion or
		// interleave; waiters outnumber tokens, so they all end blocked).
		for s.Stats().FDWaits < nBlocked {
			s.Yield()
		}
		if d := s.FDWaitDepth(fds[0], FDRead); d != 1 {
			t.Errorf("fd wait depth = %d, want 1", d)
		}

		src := &scaleSource{ready: make([]unixkern.IOReady, batch)}
		next := 0
		round := func() {
			for j := 0; j < batch; j++ {
				fd := fds[next%nBlocked]
				next++
				tokens[fd]++
				src.ready[j] = unixkern.IOReady{FD: fd, R: true}
			}
			k.NetAfter(p, vtime.Microsecond, src)
			s.Sleep(2 * vtime.Microsecond)
		}
		wakes0 := s.Stats().FDWakeups
		if got := allocsPerRound(warmup, rounds, round); got != 0 {
			t.Errorf("steady-state wake/re-block rounds allocated %d times per round (want 0)", got)
		}
		if got := s.Stats().FDWakeups - wakes0; got < (warmup+rounds)*batch {
			t.Errorf("fd wakeups in warm-up and measured rounds = %d, want >= %d", got, (warmup+rounds)*batch)
		}

		// Drain: hand every waiter its remaining tokens so all exit.
		for i := 0; i < nBlocked; i++ {
			fd := fds[i]
			for tokens[fd] < perFD {
				tokens[fd]++
			}
			src.ready[0] = unixkern.IOReady{FD: fd, R: true, All: true}
			src.comp.Ready = src.ready[:1]
			k.NetAfter(p, vtime.Microsecond, &drainSource{src: src})
			s.Sleep(2 * vtime.Microsecond)
		}
		for _, th := range ths {
			s.Join(th)
		}
		if polls != nPolling*(warmup+rounds) {
			t.Errorf("polling calls = %d, want %d", polls, nPolling*(warmup+rounds))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// allocsPerRound runs warmup rounds, then rounds measured ones, and
// returns the heap allocations per measured round, counted the way
// testing.AllocsPerRun counts them: on one P, here after a GC.
// Measured across several Ps, the count picks up the Go runtime's own
// allocations: a goroutine thread parking on its channel takes a sudog
// from its P's cache, and the woken one returns its sudog to the cache
// of whichever P it runs on. The caches drift apart, and a P that finds
// its cache and the central one empty allocates a fresh sudog — a
// stray allocation every few runs that no library path makes. On one P
// every sudog goes back to the cache it came from.
func allocsPerRound(warmup, rounds int, round func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for r := 0; r < warmup; r++ {
		round()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&ms1)
	return (ms1.Mallocs - ms0.Mallocs) / uint64(rounds)
}

// drainSource reuses the staged single-entry readiness set of src.
type drainSource struct{ src *scaleSource }

func (d *drainSource) ApplyNet() *unixkern.IOCompletion {
	return &d.src.comp
}

// TestFDWaitScale100K is the mixed-waiter test at the top of the
// ladder: 100,000 blocked descriptors spread across every wait-queue
// shard, with polling callers interleaved. The population is three
// orders of magnitude past the shard count, so every shard row holds
// thousands of descriptors — and a steady-state wake/re-block round
// must still allocate nothing.
func TestFDWaitScale100K(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-descriptor scale test skipped in -short mode")
	}
	const (
		nBlocked = 100000
		nPolling = 64
		batch    = 256
		warmup   = 4
		rounds   = 8
	)
	s := New(Config{PoolSize: nBlocked + nPolling + 2})
	err := s.Run(func() {
		p := s.Process()
		k := s.Kernel()

		fds := make([]unixkern.FD, nBlocked)
		for i := range fds {
			fds[i] = p.AllocFD(nil)
		}
		maxFD := int(fds[nBlocked-1]) + 1
		tokens := make([]int, maxFD)

		perFD := ((warmup+rounds)*batch)/nBlocked + 2
		var ths []*Thread
		for i := 0; i < nBlocked; i++ {
			fd := fds[i]
			th, err := s.Create(DefaultAttr(), func(any) any {
				attempt := func() (bool, bool) {
					if tokens[fd] > 0 {
						tokens[fd]--
						return true, false
					}
					return false, false
				}
				for r := 0; r < perFD; r++ {
					if err := s.FDBlockingCall(fd, VerbRead, 0, attempt); err != nil {
						panic(err)
					}
				}
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}

		pollFD := p.AllocFD(nil)
		polls := 0
		for i := 0; i < nPolling; i++ {
			th, err := s.Create(DefaultAttr(), func(any) any {
				attempt := func() (bool, bool) { return true, false }
				for r := 0; r < warmup+rounds; r++ {
					if err := s.FDBlockingCall(pollFD, VerbRead, 0, attempt); err != nil {
						panic(err)
					}
					polls++
					s.Yield()
				}
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}

		for s.Stats().FDWaits < nBlocked {
			s.Yield()
		}
		// Spot-check depth at descriptors in distant shard rows.
		for _, i := range []int{0, nBlocked / 2, nBlocked - 1} {
			if d := s.FDWaitDepth(fds[i], FDRead); d != 1 {
				t.Errorf("fd[%d] wait depth = %d, want 1", i, d)
			}
		}

		src := &scaleSource{ready: make([]unixkern.IOReady, batch)}
		next := 0
		// Stride the wake batches across the population so consecutive
		// rounds hit unrelated shard rows, not one warm cache line.
		const stride = 9973 // prime, coprime with nBlocked
		round := func() {
			for j := 0; j < batch; j++ {
				fd := fds[next%nBlocked]
				next += stride
				tokens[fd]++
				src.ready[j] = unixkern.IOReady{FD: fd, R: true}
			}
			k.NetAfter(p, vtime.Microsecond, src)
			s.Sleep(2 * vtime.Microsecond)
		}
		wakes0 := s.Stats().FDWakeups
		if got := allocsPerRound(warmup, rounds, round); got != 0 {
			t.Errorf("steady-state wake/re-block rounds allocated %d times per round (want 0)", got)
		}
		if got := s.Stats().FDWakeups - wakes0; got < (warmup+rounds)*batch {
			t.Errorf("fd wakeups in warm-up and measured rounds = %d, want >= %d", got, (warmup+rounds)*batch)
		}

		for i := 0; i < nBlocked; i++ {
			fd := fds[i]
			for tokens[fd] < perFD {
				tokens[fd]++
			}
			src.ready[0] = unixkern.IOReady{FD: fd, R: true, All: true}
			src.comp.Ready = src.ready[:1]
			k.NetAfter(p, vtime.Microsecond, &drainSource{src: src})
			s.Sleep(2 * vtime.Microsecond)
		}
		for _, th := range ths {
			s.Join(th)
		}
		if polls != nPolling*(warmup+rounds) {
			t.Errorf("polling calls = %d, want %d", polls, nPolling*(warmup+rounds))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitPriorityOrderAcrossShards pins the chain-wake policy when
// one completion carries readiness for descriptors scattered over the
// wait-table shards: a stride of 67 (coprime with the 64-way split)
// walks both shard dimensions, five waiters of shuffled priorities
// park on each target, and a single event readies them all. Each
// descriptor's chain must still wake strictly highest-priority-first —
// sharding changes where a queue lives, never what it does.
func TestFDWaitPriorityOrderAcrossShards(t *testing.T) {
	const (
		targets = 8
		stride  = 67
		waiters = 5
	)
	s := New(Config{PoolSize: targets*waiters + 2})
	err := s.Run(func() {
		p := s.Process()
		k := s.Kernel()
		all := make([]unixkern.FD, targets*stride)
		for i := range all {
			all[i] = p.AllocFD(nil)
		}
		fds := make([]unixkern.FD, targets)
		for i := range fds {
			fds[i] = all[i*stride]
		}
		tokens := make(map[unixkern.FD]int, targets)
		orders := make([][]int, targets)
		base := s.Self().Priority()
		prios := []int{3, 1, 5, 2, 4}
		var ths []*Thread
		for ti := range fds {
			ti := ti
			fd := fds[ti]
			for w := 0; w < waiters; w++ {
				prio := base + prios[(w+ti)%waiters]
				attr := DefaultAttr()
				attr.Priority = prio
				th, err := s.Create(attr, func(any) any {
					err := s.FDBlockingCall(fd, VerbRead, 0, func() (bool, bool) {
						if tokens[fd] > 0 {
							tokens[fd]--
							return true, tokens[fd] > 0
						}
						return false, false
					})
					if err != nil {
						panic(err)
					}
					orders[ti] = append(orders[ti], prio)
					return nil
				}, nil)
				if err != nil {
					panic(err)
				}
				ths = append(ths, th)
			}
		}
		for s.Stats().FDWaits < targets*waiters {
			s.Yield()
		}
		for _, fd := range fds {
			if d := s.FDWaitDepth(fd, FDRead); d != waiters {
				t.Errorf("fd %d wait depth = %d, want %d", fd, d, waiters)
			}
		}

		ready := make([]unixkern.IOReady, targets)
		for i, fd := range fds {
			tokens[fd] = waiters
			ready[i] = unixkern.IOReady{FD: fd, R: true}
		}
		src := &scaleSource{ready: ready}
		k.NetAfter(p, vtime.Microsecond, src)
		s.Sleep(2 * vtime.Microsecond)
		for _, th := range ths {
			s.Join(th)
		}
		for ti := range orders {
			if len(orders[ti]) != waiters {
				t.Fatalf("fd %d woke %d waiters, want %d", fds[ti], len(orders[ti]), waiters)
			}
			for i := 1; i < waiters; i++ {
				if orders[ti][i-1] < orders[ti][i] {
					t.Fatalf("fd %d wake order not priority-descending: %v", fds[ti], orders[ti])
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitPriorityOrder pins the wake policy at depth: waiters of
// distinct priorities park on one descriptor, a single completion
// carrying several units of readiness arrives, and the chain (attempt's
// more flag) must designate them strictly highest-priority-first.
func TestFDWaitPriorityOrder(t *testing.T) {
	const waiters = 8
	s := New(Config{PoolSize: waiters + 2})
	err := s.Run(func() {
		p := s.Process()
		k := s.Kernel()
		fd := p.AllocFD(nil)
		tokens := 0
		var order []int
		var ths []*Thread
		base := s.Self().Priority()
		// Shuffled priorities so arrival order differs from priority order.
		prios := []int{3, 7, 1, 8, 5, 2, 6, 4}
		for i := 0; i < waiters; i++ {
			prio := base + prios[i]
			attr := DefaultAttr()
			attr.Priority = prio
			th, err := s.Create(attr, func(any) any {
				err := s.FDBlockingCall(fd, VerbRead, 0, func() (bool, bool) {
					if tokens > 0 {
						tokens--
						return true, tokens > 0
					}
					return false, false
				})
				if err != nil {
					panic(err)
				}
				order = append(order, prio)
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for s.Stats().FDWaits < waiters {
			s.Yield()
		}
		if d := s.FDWaitDepth(fd, FDRead); d != waiters {
			t.Errorf("wait depth = %d, want %d", d, waiters)
		}

		tokens = waiters
		src := &scaleSource{ready: []unixkern.IOReady{{FD: fd, R: true}}}
		k.NetAfter(p, vtime.Microsecond, src)
		s.Sleep(2 * vtime.Microsecond)
		for _, th := range ths {
			s.Join(th)
		}
		if len(order) != waiters {
			t.Fatalf("woke %d waiters, want %d", len(order), waiters)
		}
		for i := 1; i < len(order); i++ {
			if order[i-1] < order[i] {
				t.Fatalf("wake order not priority-descending: %v", order)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
