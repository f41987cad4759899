package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pthreads/internal/core"
	"pthreads/internal/hw"
	ptio "pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/vtime"
)

// The C10k scaling suite: the same per-operation costs the host
// trajectory tracks (dispatch, uncontended mutex, timer arm/fire, echo
// round trip), measured while the library holds 8 to 10,000 threads.
// The paper's evaluation stops at a handful of threads on a
// SPARCstation; the question here is whether the reproduction's hot
// paths stay O(1) as the population grows three orders of magnitude —
// ring-buffer ready queues, kernel-free mutex fast path, per-descriptor
// wait maps, and the timer wheel are each pinned by one scenario. The
// timer rows also count the wheel's own work per op, which a test holds
// flat across the ladder exactly where host ns are only a tripwire.
//
// Host metrics (wall nanoseconds, allocations) vary by machine and are
// recorded into BENCH_host.json next to the -host benchmarks; the
// virtual cost (vus/op) is deterministic and must not drift across
// hosts at all.

// C10KSizes is the default thread-count ladder. The top rung is the
// C1M point — one million resident threads, feasible only because the
// parked populations are continuation threads (cont.go) holding no
// goroutine. `ptbench -c10k` stops at -c10kmax (default 10,000), so
// the climb is opt-in: `-c10kmax 100000` or `-c10kmax 1000000`.
var C10KSizes = []int{8, 100, 1000, 10000, 100000, 1000000}

// C10KPoint is one scenario measured at one thread count. The
// percentile fields are set only by the open-loop scenario; like
// VUSOp they are virtual time and must be bit-identical across hosts.
type C10KPoint struct {
	Scenario    string  `json:"scenario"`
	Threads     int     `json:"threads"`
	Ops         int64   `json:"ops"`
	HostNSOp    float64 `json:"host_ns_per_op"`
	AllocsOp    float64 `json:"allocs_per_op"`
	VUSOp       float64 `json:"vus_per_op"`
	IntervalVUS float64 `json:"interval_vus,omitempty"`
	P50VUS      float64 `json:"p50_vus,omitempty"`
	P99VUS      float64 `json:"p99_vus,omitempty"`

	// Timer-wheel host work per op (vtime.WheelStats), set by the timer
	// scenario. Like VUSOp it is deterministic, but it is not identical
	// across rungs: each rung starts its window at a different virtual
	// instant, so the wheel's slot boundaries fall differently.
	WheelScansOp   float64 `json:"wheel_scans_per_op,omitempty"`
	WheelRefiledOp float64 `json:"wheel_refiled_per_op,omitempty"`
	WheelSlotOp    float64 `json:"wheel_slot_scanned_per_op,omitempty"`
	WheelBoundOp   float64 `json:"wheel_bound_polls_per_op,omitempty"`

	// Ready-queue host work per op (sched.Stats), set by the dispatch
	// and mutex scenarios: dispatcher picks, and ring entries compared
	// by searches of the queue.
	ReadyPicksOp   float64 `json:"ready_picks_per_op,omitempty"`
	ReadyScannedOp float64 `json:"ready_scanned_per_op,omitempty"`
}

// c10kMeter brackets a measured region: host wall clock, cumulative
// allocation count, the virtual clock, the timer wheel's work and the
// ready queue's.
type c10kMeter struct {
	host    time.Time
	mallocs uint64
	vt      vtime.Time
	wheel   vtime.WheelStats
	picks   int64
	scanned int64
}

func c10kStart(s *core.System) c10kMeter {
	// Collect the garbage of setup (and of earlier rungs) before the
	// window opens, so a collection it owes does not land inside it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.Stats()
	return c10kMeter{host: time.Now(), mallocs: ms.Mallocs, vt: s.Now(), wheel: s.Clock().WheelStats(),
		picks: st.ReadyPicks, scanned: st.ReadyScanned}
}

// readyPerOp sets the point's ready-queue counts from the work the
// queue did since the meter started.
func (m c10kMeter) readyPerOp(s *core.System, pt *C10KPoint) {
	st := s.Stats()
	n := float64(pt.Ops)
	pt.ReadyPicksOp = float64(st.ReadyPicks-m.picks) / n
	pt.ReadyScannedOp = float64(st.ReadyScanned-m.scanned) / n
}

// wheelPerOp sets the point's timer-wheel counts from the work the clock
// did since the meter started.
func (m c10kMeter) wheelPerOp(s *core.System, pt *C10KPoint) {
	w := s.Clock().WheelStats()
	n := float64(pt.Ops)
	pt.WheelScansOp = float64(w.RegionScans-m.wheel.RegionScans) / n
	pt.WheelRefiledOp = float64(w.Refiled-m.wheel.Refiled) / n
	pt.WheelSlotOp = float64(w.SlotScanned-m.wheel.SlotScanned) / n
	pt.WheelBoundOp = float64(w.BoundPolls-m.wheel.BoundPolls) / n
}

func (m c10kMeter) stop(s *core.System, scenario string, threads int, ops int64) C10KPoint {
	host := time.Since(m.host)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops < 1 {
		ops = 1
	}
	return C10KPoint{
		Scenario: scenario,
		Threads:  threads,
		Ops:      ops,
		HostNSOp: float64(host.Nanoseconds()) / float64(ops),
		AllocsOp: float64(ms.Mallocs-m.mallocs) / float64(ops),
		VUSOp:    float64(s.Now().Sub(m.vt)) / float64(ops) / 1e3,
	}
}

func c10kConfig(threads int) core.Config {
	return core.Config{Machine: hw.SPARCstationIPX(), PoolSize: threads + 2}
}

// c10kDispatch measures the dispatcher with n threads resident and
// runnable: a fixed hot set of yielders (main plus hotSet peers at
// main's priority) round-robins through the ready structure while the
// remaining n-hotSet threads sit ready at one priority lower — loading
// the ready queues and the loaded-priority scan without ever being
// dispatched inside the window. Keeping the set of threads that
// actually run fixed isolates the dispatcher's data-structure cost
// (what the O(1) claim is about) from the cache footprint of touching
// n distinct stacks, which no scheduler can avoid. Ops are counted
// from the context-switch statistic, so per-op cost is per dispatch.
func c10kDispatch(n int) (C10KPoint, error) {
	const kYields = 60000 / 9 // ~60k dispatches through the 9-thread hot ring
	hot := 8
	if hot > n {
		hot = n
	}
	s := core.New(c10kConfig(n))
	var pt C10KPoint
	err := s.Run(func() {
		// Spinners are continuation threads: the n-hot low-priority ones
		// sit ready without ever binding a goroutine, and the hot ring
		// borrows a pooled runner per dispatch. The yield schedule is
		// bit-identical to the goroutine version's (lockstep-tested).
		stop := false
		var spin core.ContFunc
		spin = func(k *core.Cont) {
			if !stop {
				k.Yield(spin)
			}
		}
		ths := make([]*core.Thread, 0, n)
		low := core.DefaultAttr()
		low.Priority = s.Self().Priority() - 1
		for i := 0; i < n-hot; i++ {
			th, err := s.CreateCont(low, spin, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for i := 0; i < hot; i++ {
			th, err := s.CreateCont(core.DefaultAttr(), spin, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for w := 0; w < 4; w++ { // warm the hot ring at full population
			s.Yield()
		}
		cs0 := s.Stats().ContextSwitches
		m := c10kStart(s)
		for i := 0; i < kYields; i++ {
			s.Yield()
		}
		pt = m.stop(s, "dispatch", n, s.Stats().ContextSwitches-cs0)
		m.readyPerOp(s, &pt)
		stop = true
		for _, th := range ths {
			s.Join(th)
		}
	})
	return pt, err
}

// c10kMutex parks n-1 threads on one held mutex (a lock chain n deep)
// and measures main's uncontended lock/unlock pairs on a second mutex:
// the kernel-free fast path must not care how deep some other wait
// queue is. Releasing the chain afterwards drains the whole handoff
// chain in priority order.
func c10kMutex(n int) (C10KPoint, error) {
	const ops = 200000
	s := core.New(c10kConfig(n))
	var pt C10KPoint
	err := s.Run(func() {
		chain := s.MustMutex(core.MutexAttr{Name: "chain"})
		hot := s.MustMutex(core.MutexAttr{Name: "hot"})
		chain.Lock()
		parked := 0
		ths := make([]*core.Thread, 0, n-1)
		for i := 0; i < n-1; i++ {
			attr := core.DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				parked++
				k.Lock(chain, func(k *core.Cont) { chain.Unlock() })
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for parked < n-1 {
			s.Yield()
		}
		for i := 0; i < ops/10; i++ { // warm caches and lazy state
			hot.Lock()
			hot.Unlock()
		}
		m := c10kStart(s)
		for i := 0; i < ops; i++ {
			hot.Lock()
			hot.Unlock()
		}
		pt = m.stop(s, "mutex", n, ops)
		m.readyPerOp(s, &pt)
		chain.Unlock()
		for _, th := range ths {
			s.Join(th)
		}
	})
	return pt, err
}

// c10kTimer keeps n-1 timed waiters asleep far in the future (the timer
// wheel holds n entries, most of them in one coarse slot) while main
// arms, fires, and reaps short sleeps: each op is one arm + idle advance
// + expiry dispatch. The wheel never walks the sleepers' slot on the way,
// so the rung is flat, and its per-op wheel counts pin that exactly: an
// O(n) walk of the sleepers would show as slot scans growing with n.
func c10kTimer(n int) (C10KPoint, error) {
	const ops = 20000
	const long = 10 * vtime.Second
	s := core.New(c10kConfig(n))
	var pt C10KPoint
	err := s.Run(func() {
		asleep := 0
		ths := make([]*core.Thread, 0, n-1)
		for i := 0; i < n-1; i++ {
			attr := core.DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				asleep++
				k.Sleep(long, nil)
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for asleep < n-1 {
			s.Yield()
		}
		m := c10kStart(s)
		for i := 0; i < ops; i++ {
			s.Sleep(vtime.Microsecond)
		}
		pt = m.stop(s, "timer", n, ops)
		m.wheelPerOp(s, &pt)
		for _, th := range ths {
			s.Join(th)
		}
	})
	return pt, err
}

// c10kEcho measures echo round trips through the blocking-I/O jacket
// while n-2 other threads sit parked in Read on their own connections:
// the per-descriptor wait table holds thousands of entries, and the
// active pair's completions must still find their queues in O(1).
func c10kEcho(n int) (C10KPoint, error) {
	const rounds = 3000
	parkers := n - 2
	if parkers < 0 {
		parkers = 0
	}
	s := core.New(c10kConfig(n))
	var pt C10KPoint
	err := s.Run(func() {
		x := ptio.New(s, net.Config{RecvBuf: 2048, SendBuf: 2048})
		l, err := x.Listen("echo", 4)
		if err != nil {
			panic(err)
		}
		server, _ := s.Create(core.DefaultAttr(), func(any) any {
			c, err := l.Accept()
			if err != nil {
				return nil
			}
			for {
				n, err := c.Read(64)
				if err != nil {
					break
				}
				c.Write(n)
			}
			c.Close()
			return nil
		}, nil)

		// Park n-2 threads blocked in Read on their own established
		// connections; main keeps the server ends and never writes.
		lp, err := x.Listen("park", 16)
		if err != nil {
			panic(err)
		}
		held := make([]*ptio.Conn, 0, parkers)
		ths := make([]*core.Thread, 0, parkers)
		for i := 0; i < parkers; i++ {
			attr := core.DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				c, err := x.Dial("park")
				if err != nil {
					panic(err)
				}
				// Parks until the held end closes (EOF) — without a
				// goroutine: the thread is its TCB and its frame.
				c.ContRead(k, 1, func(k *core.Cont) { c.Close() })
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
			sc, err := lp.Accept()
			if err != nil {
				panic(err)
			}
			held = append(held, sc)
		}

		c, err := x.Dial("echo")
		if err != nil {
			panic(err)
		}
		m := c10kStart(s)
		for i := 0; i < rounds; i++ {
			if _, err := c.Write(64); err != nil {
				panic(err)
			}
			got := 0
			for got < 64 {
				n, err := c.Read(64)
				if err != nil {
					panic(err)
				}
				got += n
			}
		}
		pt = m.stop(s, "echo", n, rounds)
		c.Close()
		s.Join(server)
		for _, sc := range held {
			sc.Close()
		}
		for _, th := range ths {
			s.Join(th)
		}
		lp.Close()
		l.Close()
	})
	return pt, err
}

// RunC10K runs every scenario at every size (default C10KSizes) and
// returns the points grouped by scenario, sizes ascending. Each point
// is measured reps times and the minimum host cost kept — the standard
// noise-robust statistic for a shared host — while the virtual cost
// must be bit-identical across repetitions (the simulation is
// deterministic; a drift here is a bug, not noise) and across the
// ladder (c10kInvariant). The repetitions are
// rep-major: each pass measures every point once, so a noisy stretch of
// the host lands on one repetition of many points instead of on every
// repetition of one.
func RunC10K(sizes []int, reps int) ([]C10KPoint, error) {
	if len(sizes) == 0 {
		sizes = C10KSizes
	}
	if reps < 1 {
		reps = 1
	}
	scenarios := []struct {
		name string
		run  func(int) (C10KPoint, error)
	}{
		{"dispatch", c10kDispatch},
		{"mutex", c10kMutex},
		{"timer", c10kTimer},
		{"echo", c10kEcho},
		{"openloop", c10kOpenLoop},
	}
	var pts []C10KPoint
	for r := 0; r < reps; r++ {
		i := 0
		for _, sc := range scenarios {
			for _, n := range sizes {
				pt, err := sc.run(n)
				if err != nil {
					return nil, fmt.Errorf("c10k %s at %d threads: %w", sc.name, n, err)
				}
				if r == 0 {
					pts = append(pts, pt)
				}
				best := &pts[i]
				i++
				if pt.VUSOp != best.VUSOp {
					return nil, fmt.Errorf("c10k %s at %d threads: virtual cost drifted across repetitions (%.2f vs %.2f vus/op)",
						sc.name, n, best.VUSOp, pt.VUSOp)
				}
				if pt.P50VUS != best.P50VUS || pt.P99VUS != best.P99VUS {
					return nil, fmt.Errorf("c10k %s at %d threads: latency percentiles drifted across repetitions (p50 %.2f vs %.2f, p99 %.2f vs %.2f vus)",
						sc.name, n, best.P50VUS, pt.P50VUS, best.P99VUS, pt.P99VUS)
				}
				allocs := min(best.AllocsOp, pt.AllocsOp)
				if pt.HostNSOp < best.HostNSOp {
					*best = pt
				}
				best.AllocsOp = allocs
			}
		}
	}
	if err := c10kInvariant(pts); err != nil {
		return nil, err
	}
	return pts, nil
}

// c10kInvariant requires every rung's virtual cost — its vus/op and,
// for the open-loop scenario, its p50 and p99 latency — to equal the
// first rung of the same scenario: population changes host time, never
// simulated time.
func c10kInvariant(pts []C10KPoint) error {
	first := map[string]C10KPoint{}
	for _, p := range pts {
		f, ok := first[p.Scenario]
		if !ok {
			first[p.Scenario] = p
			continue
		}
		if p.VUSOp != f.VUSOp {
			return fmt.Errorf("c10k %s: vus/op varies with population: %.2f at %d threads, %.2f at %d",
				p.Scenario, f.VUSOp, f.Threads, p.VUSOp, p.Threads)
		}
		if p.P50VUS != f.P50VUS || p.P99VUS != f.P99VUS {
			return fmt.Errorf("c10k %s: latency percentiles vary with population: p50/p99 %.2f/%.2f at %d threads, %.2f/%.2f at %d",
				p.Scenario, f.P50VUS, f.P99VUS, f.Threads, p.P50VUS, p.P99VUS, p.Threads)
		}
	}
	return nil
}

// FormatC10K renders the points as a table, with each row's host cost
// relative to the smallest population of its scenario — the flatness
// the O(1) hot paths are supposed to deliver.
func FormatC10K(pts []C10KPoint) string {
	var b strings.Builder
	b.WriteString("C10k scaling: per-op cost vs. thread population\n")
	b.WriteString("(dispatch = hot yield ring beside n runnable lower-priority threads;\n")
	b.WriteString(" mutex = uncontended lock beside an n-deep lock chain; timer = 1µs\n")
	b.WriteString(" sleeps beside n far-future waiters; echo = jacket round trips beside\n")
	b.WriteString(" n parked readers. xBase is host ns/op relative to the scenario's\n")
	b.WriteString(" smallest population. Counts/op: dispatch and mutex rows give the\n")
	b.WriteString(" ready queue's picks and ring entries scanned; timer rows give the\n")
	b.WriteString(" wheel's earliest-region scans, entries re-filed, coarse-slot entries\n")
	b.WriteString(" read and polls answered by the bound. All should stay flat.)\n")
	b.WriteString("  scenario  threads      ops   host-ns/op  allocs/op    vus/op   xBase  counts/op\n")
	base := map[string]float64{}
	openloop := false
	for _, p := range pts {
		if p.Scenario == "openloop" {
			openloop = true
			continue
		}
		if _, ok := base[p.Scenario]; !ok {
			base[p.Scenario] = p.HostNSOp
		}
		rel := 0.0
		if base[p.Scenario] > 0 {
			rel = p.HostNSOp / base[p.Scenario]
		}
		b.WriteString(fmt.Sprintf("  %-8s  %7d  %7d  %11.1f  %9.3f  %8.2f  %6.2f",
			p.Scenario, p.Threads, p.Ops, p.HostNSOp, p.AllocsOp, p.VUSOp, rel))
		switch p.Scenario {
		case "dispatch", "mutex":
			b.WriteString(fmt.Sprintf("  %6.3f  %7.3f", p.ReadyPicksOp, p.ReadyScannedOp))
		case "timer":
			b.WriteString(fmt.Sprintf("  %6.3f  %7.3f  %8.3f  %6.3f",
				p.WheelScansOp, p.WheelRefiledOp, p.WheelSlotOp, p.WheelBoundOp))
		}
		b.WriteString("\n")
	}
	if openloop {
		b.WriteString("\nOpen-loop echo: fixed arrival schedule at ~80% of the 16-client\n")
		b.WriteString("pool's capacity beside n parked readers; latency counts queueing\n")
		b.WriteString("behind late arrivals. Percentiles are virtual time (deterministic).\n")
		b.WriteString("  scenario  threads      ops  arrival-vus    p50-vus    p99-vus  allocs/op\n")
		for _, p := range pts {
			if p.Scenario != "openloop" {
				continue
			}
			b.WriteString(fmt.Sprintf("  %-8s  %7d  %7d  %11.2f  %9.2f  %9.2f  %9.3f\n",
				p.Scenario, p.Threads, p.Ops, p.IntervalVUS, p.P50VUS, p.P99VUS, p.AllocsOp))
		}
	}
	return b.String()
}
