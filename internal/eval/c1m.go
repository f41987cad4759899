package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pthreads/internal/core"
	"pthreads/internal/hw"
)

// The C1M rung: one million resident threads. The ladder in c10k.go
// measures hot-path cost beside a large population; this scenario
// measures the population itself — what one resident thread costs when
// it is a parked continuation (TCB + resume descriptor, no goroutine)
// and whether the host-side machinery stays bounded: the runner pool
// must not grow with the population, and the goroutine count must not
// move while a million threads are parked.
//
// The parked threads block in a condition wait — a kernel-mediated
// park through the same declared-op handoff every other wait point uses
// — so the measured footprint is the honest per-thread cost: TCB,
// continuation frame and wait-queue slot. A parked thread has no
// simulated stack object: one is built only when a frame is pushed past
// its base frame (a signal, a fake call, UseStack).

// C1MPoint is the resident-footprint measurement at one population.
// BytesPerResident is host heap; the gauges are deterministic.
type C1MPoint struct {
	Threads          int     `json:"threads"`
	BytesPerResident float64 `json:"bytes_per_resident"`
	RunnerPeak       int64   `json:"runner_peak"`
	GoroutineDelta   int     `json:"goroutine_delta"`
	ContParked       int64   `json:"cont_parked"`
	ArenaChunks      int64   `json:"arena_chunks"`
	ArenaSlotBytes   int64   `json:"arena_slot_bytes"`
	SetupHostMS      float64 `json:"setup_host_ms"`
	DrainHostMS      float64 `json:"drain_host_ms"`
}

// c1mRunnerBudget bounds the pooled-runner peak while a population
// parks and drains: the whole point of the representation is that the
// goroutine cost is O(runners), not O(threads).
const c1mRunnerBudget = 8

// RunC1M parks n continuation threads in a condition wait, measures
// the resident footprint, then broadcasts and joins them all. It
// fails (rather than reporting) when a resource invariant breaks:
// a parked thread holding a goroutine, or the runner pool scaling
// with the population.
func RunC1M(n int) (C1MPoint, error) { return runC1M(n, false) }

// runC1M is RunC1M, with the parked threads sharing one mutex and
// condition variable or, with own, each waiting on a mutex and a
// condition variable of its own, which then count in its footprint.
func runC1M(n int, own bool) (C1MPoint, error) {
	if n < 1 {
		n = 1
	}
	gNew := runtime.NumGoroutine()
	s := core.New(core.Config{Machine: hw.SPARCstationIPX()})
	pt := C1MPoint{Threads: n}
	var invariant error
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "c1m"})
		c := s.NewCond("c1m")
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1

		g0 := runtime.NumGoroutine()
		runtime.GC()
		var h0 runtime.MemStats
		runtime.ReadMemStats(&h0)
		setup := time.Now()

		ths := make([]*core.Thread, 0, n)
		var conds []*core.Cond
		for i := 0; i < n; i++ {
			m, c := m, c
			if own {
				m, c = s.MustMutex(core.MutexAttr{Name: "c1m"}), s.NewCond("c1m")
				conds = append(conds, c)
			}
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				k.Lock(m, func(k *core.Cont) {
					k.CondWait(c, m, func(k *core.Cont) { m.Unlock() })
				})
			}, nil)
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}

		pt.SetupHostMS = float64(time.Since(setup).Microseconds()) / 1e3
		runtime.GC()
		var h1 runtime.MemStats
		runtime.ReadMemStats(&h1)
		if h1.HeapAlloc > h0.HeapAlloc {
			pt.BytesPerResident = float64(h1.HeapAlloc-h0.HeapAlloc) / float64(n)
		}
		pt.GoroutineDelta = runtime.NumGoroutine() - g0

		st := s.Stats()
		pt.ContParked = st.ContParked
		pt.RunnerPeak = st.RunnerPeak
		pt.ArenaChunks = st.ArenaChunks
		pt.ArenaSlotBytes = st.ArenaSlotBytes

		switch {
		case st.ContParked != int64(n):
			invariant = fmt.Errorf("c1m: %d of %d threads parked as continuations", st.ContParked, n)
		case st.RunnerPeak > c1mRunnerBudget:
			invariant = fmt.Errorf("c1m: runner pool peaked at %d goroutines (budget %d) — parked threads are holding runners", st.RunnerPeak, c1mRunnerBudget)
		case pt.GoroutineDelta > c1mRunnerBudget:
			invariant = fmt.Errorf("c1m: %d goroutines appeared for %d parked threads — the population is goroutine-backed", pt.GoroutineDelta, n)
		}

		drain := time.Now()
		m.Lock()
		c.Broadcast()
		m.Unlock()
		for _, c := range conds {
			c.Broadcast()
		}
		for _, th := range ths {
			if _, err := s.Join(th); err != nil {
				panic(err)
			}
		}
		pt.DrainHostMS = float64(time.Since(drain).Microseconds()) / 1e3

		if invariant == nil {
			if peak := s.Stats().RunnerPeak; peak > c1mRunnerBudget {
				invariant = fmt.Errorf("c1m: runner pool peaked at %d goroutines during the drain (budget %d)", peak, c1mRunnerBudget)
			}
		}
	})
	if err == nil {
		err = invariant
	}
	// The runners end asynchronously once Run returns, and keep the whole
	// population reachable until they do. Wait for them, so that a
	// measurement run next does not see this population freed between
	// its two heap readings (and read 0 bytes per resident).
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > gNew && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return pt, err
}

// memSectionThreads sizes ptreport's opt-in memory section: large
// enough that the per-thread cost dominates the fixed system overhead,
// small enough to stay under a second of host time.
const memSectionThreads = 100000

// FormatMem is ptreport's opt-in memory section: the resident-thread
// footprint at a report-sized population. The headline C1M point lives
// in BENCH_host.json (go run ./cmd/ptbench -c1m); this section shows
// the same measurement at a size cheap enough to regenerate with every
// report.
func FormatMem() (string, error) {
	pt, err := RunC1M(memSectionThreads)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Memory: what a resident thread costs\n")
	b.WriteString("------------------------------------\n")
	b.WriteString(FormatC1M(pt))
	return b.String(), nil
}

// FormatC1M renders the point.
func FormatC1M(pt C1MPoint) string {
	var b strings.Builder
	b.WriteString("C1M resident footprint: parked continuation threads\n")
	b.WriteString("(each resident thread is a TCB + continuation frame + wait-queue\n")
	b.WriteString(" slot; no goroutine, and no simulated stack until a frame is\n")
	b.WriteString(" pushed. bytes/resident is host heap across the parked population,\n")
	b.WriteString(" runners is the pooled goroutine peak, goroutines the host delta\n")
	b.WriteString(" while parked.)\n")
	fmt.Fprintf(&b, "  threads            %12d\n", pt.Threads)
	fmt.Fprintf(&b, "  parked             %12d\n", pt.ContParked)
	fmt.Fprintf(&b, "  bytes/resident     %12.1f\n", pt.BytesPerResident)
	fmt.Fprintf(&b, "  runner peak        %12d\n", pt.RunnerPeak)
	fmt.Fprintf(&b, "  goroutine delta    %12d\n", pt.GoroutineDelta)
	fmt.Fprintf(&b, "  arena chunks       %12d\n", pt.ArenaChunks)
	fmt.Fprintf(&b, "  tcb slot bytes     %12d\n", pt.ArenaSlotBytes)
	fmt.Fprintf(&b, "  setup host ms      %12.1f\n", pt.SetupHostMS)
	fmt.Fprintf(&b, "  drain host ms      %12.1f\n", pt.DrainHostMS)
	return b.String()
}
