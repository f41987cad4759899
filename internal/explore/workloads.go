package explore

import (
	"fmt"

	"pthreads/internal/core"
	"pthreads/internal/lockeng"
	"pthreads/internal/sched"
	"pthreads/internal/vtime"
)

// Built-in workloads: the seeded-bug programs the engine is demonstrated
// and CI-checked against. Each has a broken variant (the exploration must
// find the bug) and a fixed variant (the exploration must come back
// clean).

// PhilosophersWorkload builds the dining-philosophers table: the broken
// variant acquires symmetrically (left fork first, a circular wait away
// from deadlock); the fixed one reverses the last philosopher's order.
// The bug is the deadlock the library's detector reports.
func PhilosophersWorkload(broken bool, n, meals int) Workload {
	name := "philosophers-fixed"
	if broken {
		name = "philosophers-broken"
	}
	return Workload{
		Name: name,
		Desc: fmt.Sprintf("%d dining philosophers, %d meal(s), symmetric-acquisition deadlock", n, meals),
		Make: func(sys *core.System) (func(), func(error) string) {
			body := func() {
				forks := make([]*core.Mutex, n)
				for i := range forks {
					forks[i] = sys.MustMutex(core.MutexAttr{
						Name:     fmt.Sprintf("fork%d", i),
						Protocol: core.ProtocolCeiling,
						Ceiling:  sched.DefaultPrio,
					})
				}
				ths := make([]*core.Thread, 0, n)
				for i := 0; i < n; i++ {
					attr := core.DefaultAttr()
					attr.Name = fmt.Sprintf("philosopher%d", i)
					th, _ := sys.Create(attr, func(arg any) any {
						id := arg.(int)
						first, second := forks[id], forks[(id+1)%n]
						if !broken && id == n-1 {
							first, second = second, first
						}
						for m := 0; m < meals; m++ {
							sys.Compute(500 * vtime.Microsecond) // think
							first.Lock()
							second.Lock()
							sys.Compute(300 * vtime.Microsecond) // eat
							second.Unlock()
							first.Unlock()
						}
						return nil
					}, i)
					ths = append(ths, th)
				}
				for _, th := range ths {
					sys.Join(th)
				}
			}
			check := func(err error) string {
				if err != nil {
					return firstLine(err.Error())
				}
				return ""
			}
			return body, check
		},
	}
}

// RacyCounterWorkload builds the latent-race workload of the perverted
// scheduling experiment: an unprotected counter read-modify-write
// spanning an unrelated critical section. Accesses are annotated with
// NoteRead/NoteWrite, so the race checker sees them; the observable
// failure is a lost update. The fixed variant moves the increment inside
// the lock.
func RacyCounterWorkload(broken bool, threads, iters int) Workload {
	name := "racy-counter-fixed"
	if broken {
		name = "racy-counter"
	}
	return Workload{
		Name: name,
		Desc: fmt.Sprintf("%d threads × %d unprotected counter increments spanning a critical section", threads, iters),
		Make: func(sys *core.System) (func(), func(error) string) {
			counter := 0
			logLen := 0
			body := func() {
				logMutex := sys.MustMutex(core.MutexAttr{Name: "log", Protocol: core.ProtocolInherit})
				attr := core.DefaultAttr()
				attr.Priority = sys.Self().Priority()
				ths := make([]*core.Thread, 0, threads)
				for i := 0; i < threads; i++ {
					attr.Name = fmt.Sprintf("worker%d", i)
					th, _ := sys.Create(attr, func(any) any {
						for j := 0; j < iters; j++ {
							if broken {
								// The bug: the update spans the log
								// append's critical section unprotected.
								sys.NoteRead("counter")
								tmp := counter
								logMutex.Lock()
								logLen++
								logMutex.Unlock()
								sys.NoteWrite("counter")
								counter = tmp + 1
							} else {
								logMutex.Lock()
								logLen++
								sys.NoteRead("counter")
								sys.NoteWrite("counter")
								counter++
								logMutex.Unlock()
							}
						}
						return nil
					}, nil)
					ths = append(ths, th)
				}
				for _, th := range ths {
					sys.Join(th)
				}
			}
			check := func(err error) string {
				if err != nil {
					return firstLine(err.Error())
				}
				if expected := threads * iters; counter != expected {
					return fmt.Sprintf("lost updates: final counter %d, expected %d", counter, expected)
				}
				return ""
			}
			return body, check
		},
	}
}

// Workloads returns the built-in workload registry.
func Workloads() []Workload {
	return []Workload{
		PhilosophersWorkload(true, 3, 1),
		PhilosophersWorkload(false, 3, 1),
		RacyCounterWorkload(true, 3, 4),
		RacyCounterWorkload(false, 3, 4),
		SockEchoWorkload(2, 64),
		SockLostWakeupWorkload(true, 64),
		SockLostWakeupWorkload(false, 64),
		LockEngineWorkload("lock-mcs-handoff", lockeng.KindMCS, 3, 3, 0),
		LockEngineWorkload("lock-ticket-wrap", lockeng.KindTicket, 3, 4, 0xFFFB),
		LockEngineWorkload("lock-unfair", lockeng.KindUnfair, 3, 3, 0),
		LockEngineWorkload("lock-unfair-fixed", lockeng.KindUnfairFixed, 3, 3, 0),
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
