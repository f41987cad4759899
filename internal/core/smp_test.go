package core

import (
	"runtime"
	"testing"

	"pthreads/internal/lockeng"
	"pthreads/internal/vtime"
)

// smpContend runs n threads on n VCPUs hammering one engine mutex and
// returns the system for inspection.
func smpContend(t *testing.T, kind lockeng.Kind, vcpus, iters int) (*SMPSystem, int) {
	t.Helper()
	s := NewSMP(SMPConfig{VCPUs: vcpus})
	m := s.NewSMPMutex(kind, "m")
	counter := 0
	for i := 0; i < vcpus; i++ {
		s.Go("worker", func(th *SMPThread) {
			for n := 0; n < iters; n++ {
				m.Lock(th)
				counter++
				th.Compute(2 * vtime.Microsecond)
				m.Unlock(th)
				th.Compute(vtime.Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%v on %d VCPUs: %v", kind, vcpus, err)
	}
	return s, counter
}

func TestSMPMutualExclusionAllEngines(t *testing.T) {
	for _, kind := range lockeng.Kinds() {
		for _, vcpus := range []int{1, 2, 4} {
			s, counter := smpContend(t, kind, vcpus, 50)
			if want := vcpus * 50; counter != want {
				t.Fatalf("%v on %d VCPUs: counter = %d, want %d", kind, vcpus, counter, want)
			}
			if s.err != nil {
				t.Fatalf("unexpected error state: %v", s.err)
			}
		}
	}
}

func TestSMPDeterministicSchedule(t *testing.T) {
	for _, kind := range []lockeng.Kind{lockeng.KindTTAS, lockeng.KindMCS} {
		a, _ := smpContend(t, kind, 4, 30)
		b, _ := smpContend(t, kind, 4, 30)
		if a.ScheduleHash() != b.ScheduleHash() {
			t.Fatalf("%v: schedule hash differs across identical runs: %x vs %x",
				kind, a.ScheduleHash(), b.ScheduleHash())
		}
		if a.Machine().MaxNow() != b.Machine().MaxNow() {
			t.Fatalf("%v: makespan differs across identical runs: %v vs %v",
				kind, a.Machine().MaxNow(), b.Machine().MaxNow())
		}
		for i, v := range a.Machine().CPUs {
			w := b.Machine().CPUs[i]
			if v.Bounces != w.Bounces || v.Spins != w.Spins || v.Now() != w.Now() {
				t.Fatalf("%v: VCPU %d counters differ across identical runs", kind, i)
			}
		}
	}
}

// TestSMPQueueLocksBounceLess pins the cost model's headline property:
// under contention the queue locks generate less coherence traffic per
// acquisition than TTAS, which in turn beats bare TAS.
func TestSMPQueueLocksBounceLess(t *testing.T) {
	const vcpus, iters = 8, 50
	perAcq := func(kind lockeng.Kind) float64 {
		s, _ := smpContend(t, kind, vcpus, iters)
		return float64(s.Machine().TotalBounces()) / float64(vcpus*iters)
	}
	tas := perAcq(lockeng.KindTAS)
	ttas := perAcq(lockeng.KindTTAS)
	mcs := perAcq(lockeng.KindMCS)
	clh := perAcq(lockeng.KindCLH)
	if !(mcs < ttas && clh < ttas) {
		t.Fatalf("queue locks should bounce less than TTAS at %d CPUs: tas=%.1f ttas=%.1f mcs=%.1f clh=%.1f",
			vcpus, tas, ttas, mcs, clh)
	}
	if !(ttas < tas) {
		t.Fatalf("TTAS should bounce less than bare TAS: tas=%.1f ttas=%.1f", tas, ttas)
	}
}

func TestSMPSingleCPUHasNoCoherenceTraffic(t *testing.T) {
	s, counter := smpContend(t, lockeng.KindTTAS, 1, 40)
	if counter != 40 {
		t.Fatalf("counter = %d, want 40", counter)
	}
	if b := s.Machine().TotalBounces(); b != 0 {
		t.Fatalf("single-CPU run observed %d line bounces, want 0", b)
	}
	if st := s.Steals(); st != 0 {
		t.Fatalf("single-CPU run stole %d threads, want 0", st)
	}
}

// TestSMPWorkStealing puts all threads on CPU 0's queue (more threads
// than one CPU should keep) and checks the idle CPUs pull them over.
func TestSMPWorkStealing(t *testing.T) {
	s := NewSMP(SMPConfig{VCPUs: 4})
	ran := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		th := s.Go("w", func(th *SMPThread) {
			th.Compute(5 * vtime.Microsecond)
			ran[i] = th.CPU() + 1
		})
		// Force a cold-start imbalance: every thread starts homed on
		// CPU 0 regardless of the round-robin default.
		th.cpu = 0
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Steals() == 0 {
		t.Fatalf("no steals despite an all-on-CPU-0 imbalance")
	}
	cpusUsed := map[int]bool{}
	for i, c := range ran {
		if c == 0 {
			t.Fatalf("thread %d never ran", i)
		}
		cpusUsed[c-1] = true
	}
	if len(cpusUsed) < 2 {
		t.Fatalf("all threads ran on one CPU; stealing spread nothing")
	}
}

func TestSMPJoinAndYield(t *testing.T) {
	s := NewSMP(SMPConfig{VCPUs: 2})
	order := []string{}
	a := s.Go("a", func(th *SMPThread) {
		th.Compute(3 * vtime.Microsecond)
		th.Yield()
		th.Compute(vtime.Microsecond)
		order = append(order, "a")
	})
	s.Go("b", func(th *SMPThread) {
		th.Join(a)
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("join ordering broken: %v", order)
	}
	// The joiner resumed after a's exit: its clock must be at least a's
	// exit time even though it blocked almost immediately.
	if s.cpus[1].Now() < 4*vtime.Time(vtime.Microsecond) {
		t.Fatalf("joiner's clock %v did not propagate past the exit it waited on", s.cpus[1].Now())
	}
}

// TestSMPDeadlockDetected also requires Run to unwind the deadlocked
// threads: the goroutine count comes back to its baseline.
func TestSMPDeadlockDetected(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSMP(SMPConfig{VCPUs: 2})
	var a, b *SMPThread
	a = s.Go("a", func(th *SMPThread) { th.Join(b) })
	b = s.Go("b", func(th *SMPThread) { th.Join(a) })
	if err := s.Run(); err == nil {
		t.Fatalf("mutual join did not report deadlock")
	}
	awaitGoroutines(t, before)
}

// TestSMPDeadlockUnwindsDeferredOps deadlocks threads whose bodies
// defer SMP operations, one of them on a held engine mutex: each
// deferred operation unwinds instead of waiting for a turn, the
// deferred calls around it still run, and every thread goroutine ends
// with Run.
func TestSMPDeadlockUnwindsDeferredOps(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSMP(SMPConfig{VCPUs: 1})
	m := s.NewSMPMutex(lockeng.KindTAS, "m")
	var a, b *SMPThread
	ran := 0
	a = s.Go("a", func(th *SMPThread) {
		defer func() { ran++ }()
		defer th.Compute(10)
		th.Join(b)
	})
	b = s.Go("b", func(th *SMPThread) {
		m.Lock(th)
		defer m.Unlock(th)
		th.Join(a)
	})
	if err := s.Run(); err == nil {
		t.Fatalf("mutual join did not report deadlock")
	}
	awaitGoroutines(t, before)
	if ran != 1 {
		t.Errorf("a's deferred calls ran %d times, want 1", ran)
	}
}

func TestSMPTicketWrapUnderContention(t *testing.T) {
	s := NewSMP(SMPConfig{VCPUs: 4})
	m := s.NewSMPMutex(lockeng.KindTicket, "m")
	m.Engine().SetTicketBase(s.Env(), 65520)
	counter := 0
	for i := 0; i < 4; i++ {
		s.Go("w", func(th *SMPThread) {
			for n := 0; n < 25; n++ {
				m.Lock(th)
				counter++
				m.Unlock(th)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 100 {
		t.Fatalf("counter = %d, want 100 across the 16-bit ticket wrap", counter)
	}
}
