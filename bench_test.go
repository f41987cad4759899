// Benchmarks regenerating the paper's Table 2, one testing.B benchmark
// per row, plus the ablation and layering benchmarks. Each reports two
// numbers: the Go wall-clock ns/op of the reproduction itself, and —
// the number that corresponds to the paper — the virtual µs/op charged
// by the calibrated SPARCstation IPX machine model ("vus/op").
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The deterministic paper-vs-measured comparison lives in cmd/ptbench;
// these benchmarks exercise the same code paths under the standard Go
// harness.
package pthreads_test

import (
	"testing"

	"pthreads"
	"pthreads/internal/eval"
	"pthreads/internal/metrics"
	"pthreads/internal/obs"
)

// reportVirtual attaches the virtual-time metric for n operations.
func reportVirtual(b *testing.B, s *pthreads.System, from pthreads.Time, n int) {
	b.Helper()
	if n <= 0 {
		n = 1
	}
	b.ReportMetric(s.Now().Sub(from).Micros()/float64(n), "vus/op")
}

// BenchmarkKernelEnterExit is Table 2 row 1: the null library call.
func BenchmarkKernelEnterExit(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			s.KernelEnterExit()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUnixGetpid is Table 2 row 2: enter and exit the UNIX kernel.
func BenchmarkUnixGetpid(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		p := s.Process()
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			p.Getpid()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMutexNoContention is Table 2 row 3.
func BenchmarkMutexNoContention(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		m := s.MustMutex(pthreads.MutexAttr{Name: "bench"})
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMutexContention is Table 2 row 4: the unlock-to-lock-return
// hand-off to a suspended higher-priority thread.
func BenchmarkMutexContention(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		m := s.MustMutex(pthreads.MutexAttr{Name: "bench"})
		gate, _ := pthreads.NewSemaphore(s, "gate", 0)
		var t0 pthreads.Time
		var total pthreads.Duration
		m.Lock()
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		locker, _ := s.Create(attr, func(any) any {
			for i := 0; i < b.N; i++ {
				m.Lock() // suspended while main holds m
				total += s.Now().Sub(t0)
				m.Unlock()
				gate.P()
			}
			return nil
		}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 = s.Now()
			m.Unlock()
			m.Lock()
			gate.V()
		}
		b.StopTimer()
		// The paper's interval: unlock by A to lock return in B.
		b.ReportMetric(total.Micros()/float64(b.N), "vus/op")
		m.Unlock()
		s.Join(locker)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSemaphoreSync is Table 2 row 5: one P plus one V between two
// threads (half a ping-pong round).
func BenchmarkSemaphoreSync(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		ping, _ := pthreads.NewSemaphore(s, "ping", 0)
		pong, _ := pthreads.NewSemaphore(s, "pong", 0)
		attr := pthreads.DefaultAttr()
		echo, _ := s.Create(attr, func(any) any {
			for i := 0; i < b.N; i++ {
				ping.P()
				pong.V()
			}
			return nil
		}, nil)
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			ping.V()
			pong.P()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, 2*b.N)
		s.Join(echo)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadCreate is Table 2 row 6: pthread_create with a pooled
// TCB/stack and no context switch.
func BenchmarkThreadCreate(b *testing.B) {
	const batch = 64
	s := pthreads.New(pthreads.Config{PoolSize: batch + 8})
	err := s.Run(func() {
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		ths := make([]*pthreads.Thread, 0, batch)
		var virtual pthreads.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v0 := s.Now()
			th, err := s.Create(attr, func(any) any { return nil }, nil)
			if err != nil {
				b.Fatal(err)
			}
			virtual += s.Now().Sub(v0)
			ths = append(ths, th)
			if len(ths) == batch {
				// Drain outside the timed window so the pool refills.
				b.StopTimer()
				for _, t := range ths {
					s.Join(t)
				}
				ths = ths[:0]
				b.StartTimer()
			}
		}
		b.StopTimer()
		b.ReportMetric(virtual.Micros()/float64(b.N), "vus/op")
		for _, t := range ths {
			s.Join(t)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCreateUnpooled is the ablation counterpart of row 6: every
// creation pays the heap allocation (paper: ~70% of creation time).
func BenchmarkCreateUnpooled(b *testing.B) {
	const batch = 64
	s := pthreads.New(pthreads.Config{DisablePool: true})
	err := s.Run(func() {
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		ths := make([]*pthreads.Thread, 0, batch)
		var virtual pthreads.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v0 := s.Now()
			th, _ := s.Create(attr, func(any) any { return nil }, nil)
			virtual += s.Now().Sub(v0)
			ths = append(ths, th)
			if len(ths) == batch {
				b.StopTimer()
				for _, t := range ths {
					s.Join(t)
				}
				ths = ths[:0]
				b.StartTimer()
			}
		}
		b.StopTimer()
		b.ReportMetric(virtual.Micros()/float64(b.N), "vus/op")
		for _, t := range ths {
			s.Join(t)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSetjmpLongjmp is Table 2 row 7.
func BenchmarkSetjmpLongjmp(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			var jb pthreads.JmpBuf
			if s.Setjmp(&jb, func() { s.Longjmp(&jb, 1) }) != 1 {
				b.Fatal("longjmp missed")
			}
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch is Table 2 row 8: a yield between two
// equal-priority threads (each iteration is two switches).
func BenchmarkContextSwitch(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		stop := false
		attr := pthreads.DefaultAttr()
		partner, _ := s.Create(attr, func(any) any {
			for !stop {
				s.Yield()
			}
			return nil
		}, nil)
		s.Yield()
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			s.Yield()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, 2*b.N)
		stop = true
		s.Join(partner)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitchCont is BenchmarkContextSwitch between two
// continuation threads: they yield to each other while main waits in
// Join, so each iteration is again two switches, now handed over on one
// runner goroutine. The virtual cost per switch is the same.
func BenchmarkContextSwitchCont(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		// Step entries 1 and 2 are the partners' first dispatches; entry
		// 3 is the first return from a yield, where timing starts.
		const warm = 3
		entries, end := 0, warm+2*b.N
		var v0 pthreads.Time
		var step pthreads.ContFunc
		step = func(k *pthreads.Cont) {
			entries++
			switch entries {
			case warm:
				b.ResetTimer()
				v0 = s.Now()
			case end:
				b.StopTimer()
				reportVirtual(b, s, v0, 2*b.N)
			}
			if entries < end {
				k.Yield(step)
			}
		}
		attr := pthreads.DefaultAttr()
		x, _ := s.CreateCont(attr, step, nil)
		y, _ := s.CreateCont(attr, step, nil)
		s.Join(x)
		s.Join(y)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalInternal is Table 2 row 10: pthread_kill to a suspended
// thread, measured to handler entry.
func BenchmarkSignalInternal(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		var t0 pthreads.Time
		var total pthreads.Duration
		s.Sigaction(pthreads.SIGUSR1, func(pthreads.Signal, *pthreads.SigInfo, *pthreads.SigContext) {
			total += s.Now().Sub(t0)
		}, 0)
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		receiver, _ := s.Create(attr, func(any) any {
			for i := 0; i < b.N; i++ {
				s.Sleep(pthreads.Second)
			}
			return nil
		}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 = s.Now()
			s.Kill(receiver, pthreads.SIGUSR1)
		}
		b.StopTimer()
		// Send to handler entry, the paper's definition.
		b.ReportMetric(total.Micros()/float64(b.N), "vus/op")
		s.Join(receiver)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalExternal is Table 2 row 11: kill(getpid(), sig)
// demultiplexed to a thread by the universal handler.
func BenchmarkSignalExternal(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		var t0 pthreads.Time
		var total pthreads.Duration
		s.Sigaction(pthreads.SIGUSR2, func(pthreads.Signal, *pthreads.SigInfo, *pthreads.SigContext) {
			total += s.Now().Sub(t0)
		}, 0)
		s.SetSigmask(pthreads.MakeSigset(pthreads.SIGUSR2))
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		receiver, _ := s.Create(attr, func(any) any {
			for i := 0; i < b.N; i++ {
				s.Sleep(pthreads.Second)
			}
			return nil
		}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 = s.Now()
			s.RaiseProcess(pthreads.SIGUSR2)
		}
		b.StopTimer()
		b.ReportMetric(total.Micros()/float64(b.N), "vus/op")
		s.Join(receiver)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUnixSignalAndProcessSwitch covers Table 2 rows 9 and 12
// through the eval harness (they involve no thread library, only the
// simulated UNIX kernel).
func BenchmarkUnixSignalAndProcessSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table2()
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// BenchmarkMutexProtocols compares the lock/unlock pair across the three
// priority protocols (none pays no kernel entry; inheritance and ceiling
// do protocol work).
func BenchmarkMutexProtocols(b *testing.B) {
	cases := []struct {
		name string
		attr pthreads.MutexAttr
	}{
		{"none", pthreads.MutexAttr{Name: "m"}},
		{"inherit", pthreads.MutexAttr{Name: "m", Protocol: pthreads.ProtocolInherit}},
		{"ceiling", pthreads.MutexAttr{Name: "m", Protocol: pthreads.ProtocolCeiling, Ceiling: 30}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			s := pthreads.New(pthreads.Config{})
			err := s.Run(func() {
				m := s.MustMutex(tc.attr)
				b.ResetTimer()
				v0 := s.Now()
				for i := 0; i < b.N; i++ {
					m.Lock()
					m.Unlock()
				}
				b.StopTimer()
				reportVirtual(b, s, v0, b.N)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLockPrimitives is the Figure 4 ablation: ldstub vs
// ldstub-in-RAS vs hypothetical compare-and-swap.
func BenchmarkLockPrimitives(b *testing.B) {
	for _, prim := range []pthreads.LockPrimitive{pthreads.TASOnly, pthreads.TASWithRAS, pthreads.CompareAndSwap} {
		prim := prim
		b.Run(prim.String(), func(b *testing.B) {
			s := pthreads.New(pthreads.Config{})
			err := s.Run(func() {
				m := s.MustMutex(pthreads.MutexAttr{Name: "m", Primitive: prim, PrimitiveSet: true})
				b.ResetTimer()
				v0 := s.Now()
				for i := 0; i < b.N; i++ {
					m.Lock()
					m.Unlock()
				}
				b.StopTimer()
				reportVirtual(b, s, v0, b.N)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCondSignalWait measures a full condition-variable hand-off.
func BenchmarkCondSignalWait(b *testing.B) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		m := s.MustMutex(pthreads.MutexAttr{Name: "m"})
		c := s.NewCond("c")
		seq := 0
		attr := pthreads.DefaultAttr()
		partner, _ := s.Create(attr, func(any) any {
			m.Lock()
			for i := 0; i < b.N; i++ {
				for seq%2 == 0 {
					c.Wait(m)
				}
				seq++
				c.Signal()
			}
			m.Unlock()
			return nil
		}, nil)
		b.ResetTimer()
		v0 := s.Now()
		m.Lock()
		for i := 0; i < b.N; i++ {
			seq++
			c.Signal()
			for seq%2 == 1 {
				c.Wait(m)
			}
		}
		m.Unlock()
		b.StopTimer()
		reportVirtual(b, s, v0, 2*b.N)
		s.Join(partner)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRendezvous measures the Ada-layer entry call + accept (the
// layering-overhead claim).
func BenchmarkRendezvous(b *testing.B) {
	res, err := eval.MeasureRendezvousAblation(pthreads.SPARCstationIPX())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.RendezvousMicro, "vus/rendezvous")
	b.ReportMetric(res.Overhead, "x-overhead")
}

// BenchmarkPervertedScheduling measures the cost of each debug policy on
// the synchronization-heavy racy workload.
func BenchmarkPervertedScheduling(b *testing.B) {
	for _, pol := range []pthreads.PervertPolicy{
		pthreads.PervertNone, pthreads.PervertMutexSwitch, pthreads.PervertRROrdered, pthreads.PervertRandom,
	} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunPervert(pol, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Full regenerates the whole table per iteration; it is
// the one-stop reproduction driver under the bench harness.
func BenchmarkTable2Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the three inversion scenarios.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure5All(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the cancellation-action matrix.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the protocol-mixing trace in both unlock
// modes.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunTable4(pthreads.MixStack); err != nil {
			b.Fatal(err)
		}
		if _, err := eval.RunTable4(pthreads.MixLinearSearch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUtilizationSweep regenerates the extension figure (three
// utilization points).
func BenchmarkUtilizationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.UtilizationSweep([]float64{0.3, 0.6, 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallProfiles regenerates the syscalls-per-operation bill.
func BenchmarkSyscallProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.SyscallProfiles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetEcho measures one echo round trip through the blocking-I/O
// jacket layer: the client's Write crosses the simulated wire, wakes the
// server from its per-fd wait queue, and the echoed response wakes the
// client back — four jacket calls, two suspensions, two SIGIO
// completions per op. Spans off, this path must stay at 0 allocs/op —
// the regression gate (scripts/benchdiff) holds the line.
func BenchmarkNetEcho(b *testing.B) {
	benchNetEcho(b, false)
}

// BenchmarkNetEchoSpans is the same round trip with the fleet span
// recorder attached: every Read/Write opens, annotates, and closes a
// span. The delta against BenchmarkNetEcho is the recorded cost of the
// observability plane on its hottest path.
func BenchmarkNetEchoSpans(b *testing.B) {
	benchNetEcho(b, true)
}

func benchNetEcho(b *testing.B, spans bool) {
	s := pthreads.New(pthreads.Config{})
	err := s.Run(func() {
		x := pthreads.NewIO(s, pthreads.NetConfig{})
		if spans {
			x.SetSpans(obs.NewRecorder(0))
		}
		l, err := x.Listen("echo", 1)
		if err != nil {
			b.Fatal(err)
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "server"
		server, _ := s.Create(attr, func(any) any {
			c, err := l.Accept()
			if err != nil {
				return nil
			}
			for {
				n, err := c.Read(64)
				if err != nil {
					break // EOF: the client finished
				}
				c.Write(n)
			}
			c.Close()
			return nil
		}, nil)

		c, err := x.Dial("echo")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			if _, err := c.Write(64); err != nil {
				b.Fatal(err)
			}
			got := 0
			for got < 64 {
				n, err := c.Read(64)
				if err != nil {
					b.Fatal(err)
				}
				got += n
			}
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
		c.Close()
		s.Join(server)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkC10KEcho is BenchmarkNetEcho under population pressure:
// 10,000 other threads sit parked in Read on their own connections
// while the active pair echoes. The sharded per-descriptor wait
// tables, pooled completions, and ring-buffer ready queues must keep
// the round trip at the same cost it has with an empty house
// (BENCH_host.json's c10k section records the full ladder).
func BenchmarkC10KEcho(b *testing.B) {
	benchEchoParked(b, 10000, false)
}

// BenchmarkC10KEchoSpans is the C10k round trip with the span recorder
// attached — the plane's cost must not grow with the parked population
// (spans are per active call, not per thread).
func BenchmarkC10KEchoSpans(b *testing.B) {
	benchEchoParked(b, 10000, true)
}

// BenchmarkC100KEcho is the same round trip beside 100,000 parked
// readers. Steady state must stay at 0 allocs/op: the wait-queue
// shards, descriptor table, and timer wheel are all preallocated or
// pooled, so population adds memory but no per-op work.
func BenchmarkC100KEcho(b *testing.B) {
	benchEchoParked(b, 100000, false)
}

// BenchmarkC1MEcho is the top rung: the echo pair works beside one
// million parked readers. Feasible only because each parked reader is
// a continuation thread — a TCB, an arena-backed read state, and a
// wait-queue slot, with no goroutine behind it — so the resident
// population costs memory, not scheduler state. Steady state must stay
// at 0 allocs/op like the smaller rungs.
func BenchmarkC1MEcho(b *testing.B) {
	if testing.Short() {
		b.Skip("million-thread setup: skipped with -short")
	}
	benchEchoParked(b, 1000000, false)
}

func benchEchoParked(b *testing.B, parked int, spans bool) {
	withEchoParked(b, parked, spans, func(s *pthreads.System, round func()) {
		b.ReportAllocs()
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
}

// withEchoParked builds the echo ladder's population once — parked
// continuation readers, each in ContRead on its own connection whose far
// end main holds, beside an echo server — and calls run from main with
// one 64-byte round trip to the server. It tears the population down
// when run returns.
func withEchoParked(tb testing.TB, parked int, spans bool, run func(s *pthreads.System, round func())) {
	s := pthreads.New(pthreads.Config{PoolSize: parked + 4})
	err := s.Run(func() {
		x := pthreads.NewIO(s, pthreads.NetConfig{})
		if spans {
			x.SetSpans(obs.NewRecorder(0))
		}
		l, err := x.Listen("echo", 1)
		if err != nil {
			tb.Fatal(err)
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "server"
		server, _ := s.Create(attr, func(any) any {
			c, err := l.Accept()
			if err != nil {
				return nil
			}
			for {
				n, err := c.Read(64)
				if err != nil {
					break // EOF: the client finished
				}
				c.Write(n)
			}
			c.Close()
			return nil
		}, nil)

		lp, err := x.Listen("park", 16)
		if err != nil {
			tb.Fatal(err)
		}
		pattr := pthreads.DefaultAttr()
		pattr.Priority = s.Self().Priority() + 1
		held := make([]*pthreads.Conn, 0, parked)
		parkers := make([]*pthreads.Thread, 0, parked)
		for i := 0; i < parked; i++ {
			th, err := s.CreateCont(pattr, func(k *pthreads.Cont) {
				c, err := x.Dial("park")
				if err != nil {
					panic(err)
				}
				// Parks until the held end closes (EOF) — as a TCB plus
				// read state, no goroutine (see internal/core/cont.go).
				c.ContRead(k, 1, func(k *pthreads.Cont) { c.Close() })
			}, nil)
			if err != nil {
				tb.Fatal(err)
			}
			parkers = append(parkers, th)
			sc, err := lp.Accept()
			if err != nil {
				tb.Fatal(err)
			}
			held = append(held, sc)
		}

		c, err := x.Dial("echo")
		if err != nil {
			tb.Fatal(err)
		}
		run(s, func() {
			if _, err := c.Write(64); err != nil {
				tb.Fatal(err)
			}
			got := 0
			for got < 64 {
				n, err := c.Read(64)
				if err != nil {
					tb.Fatal(err)
				}
				got += n
			}
		})
		c.Close()
		s.Join(server)
		for _, sc := range held {
			sc.Close()
		}
		for _, th := range parkers {
			s.Join(th)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// benchMutexMetrics is Table 2 row 3 (uncontended lock/unlock) with an
// optional tracer attached (the metrics collector): the pair pins the
// cost of the observer hook on the hottest path. Both modes must report
// 0 allocs/op — the off mode because each site is a nil check, the on
// mode because the collector records into pre-sized tables.
func benchMutexMetrics(b *testing.B, tracer pthreads.Tracer) {
	s := pthreads.New(pthreads.Config{Tracer: tracer})
	err := s.Run(func() {
		m := s.MustMutex(pthreads.MutexAttr{Name: "bench"})
		m.Lock() // size the collector's mutex table before the timer
		m.Unlock()
		b.ReportAllocs()
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMutexMetricsOff is the uncontended mutex path with no
// tracer attached.
func BenchmarkMutexMetricsOff(b *testing.B) { benchMutexMetrics(b, nil) }

// BenchmarkMutexMetricsOn is the same path with the collector attached.
func BenchmarkMutexMetricsOn(b *testing.B) {
	benchMutexMetrics(b, metrics.New(metrics.Options{}))
}

// benchDispatchMetrics is the context-switch benchmark (Table 2 row 8)
// with an optional tracer (the metrics collector): every yield drives
// the dispatcher's state events, so this is the per-dispatch hook cost.
func benchDispatchMetrics(b *testing.B, tracer pthreads.Tracer) {
	s := pthreads.New(pthreads.Config{Tracer: tracer})
	err := s.Run(func() {
		stop := false
		attr := pthreads.DefaultAttr()
		partner, _ := s.Create(attr, func(any) any {
			for !stop {
				s.Yield()
			}
			return nil
		}, nil)
		s.Yield() // size the collector's thread table before the timer
		b.ReportAllocs()
		b.ResetTimer()
		v0 := s.Now()
		for i := 0; i < b.N; i++ {
			s.Yield()
		}
		b.StopTimer()
		reportVirtual(b, s, v0, 2*b.N)
		stop = true
		s.Join(partner)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDispatchMetricsOff is two context switches per op, no tracer.
func BenchmarkDispatchMetricsOff(b *testing.B) { benchDispatchMetrics(b, nil) }

// BenchmarkDispatchMetricsOn is the same with the collector attached.
func BenchmarkDispatchMetricsOn(b *testing.B) {
	benchDispatchMetrics(b, metrics.New(metrics.Options{}))
}
