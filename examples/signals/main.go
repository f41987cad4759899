// Signal handling tour: per-thread masks, a sigwait server thread
// consuming process-level signals, a handler delivered by fake call at
// the receiving thread's priority, alarm timers, an interrupted
// condition wait (spurious wakeup), and cancellation with cleanup
// handlers — the paper's whole signal machinery in one program.
package main

import (
	"fmt"

	"pthreads"
	"pthreads/internal/unixkern"
)

func main() {
	sys := pthreads.New(pthreads.Config{})

	err := sys.Run(func() {
		log := func(format string, args ...any) {
			fmt.Printf("[%10v] %-10s ", sys.Now(), sys.Self().Name())
			fmt.Printf(format+"\n", args...)
		}

		// 1. A sigwait server: main masks SIGUSR1 so the dedicated
		// thread is the only eligible recipient.
		sys.SetSigmask(pthreads.MakeSigset(pthreads.SIGUSR1))
		attr := pthreads.DefaultAttr()
		attr.Name = "sigserver"
		attr.Priority = pthreads.DefaultPrio + 2
		server, _ := sys.Create(attr, func(any) any {
			handled := 0
			sys.SetSigmask(pthreads.MakeSigset(pthreads.SIGUSR1))
			for handled < 3 {
				sig, err := sys.Sigwait(pthreads.MakeSigset(pthreads.SIGUSR1))
				if err != nil {
					log("sigwait error: %v", err)
					continue
				}
				handled++
				log("sigwait returned %v (%d/3)", sig, handled)
			}
			return handled
		}, nil)

		for i := 0; i < 3; i++ {
			sys.Compute(pthreads.Millisecond)
			log("raising SIGUSR1 at the process")
			sys.RaiseProcess(pthreads.SIGUSR1)
		}
		sys.Join(server)

		// 2. A handler delivered via fake call: the alarm is directed at
		// the thread that armed it (recipient rule 3) and the handler
		// runs at that thread's priority.
		sys.Sigaction(pthreads.SIGALRM, func(sig pthreads.Signal, info *pthreads.SigInfo, sc *pthreads.SigContext) {
			fmt.Printf("[%10v] %-10s handler for %v (cause %v) at priority %d\n",
				sys.Now(), sc.Thread().Name(), sig, info.Cause, sc.Thread().Priority())
		}, 0)
		attr2 := pthreads.DefaultAttr()
		attr2.Name = "worker"
		worker, _ := sys.Create(attr2, func(any) any {
			sys.Alarm(2 * pthreads.Millisecond)
			log("armed a 2ms alarm, computing 5ms")
			sys.Compute(5 * pthreads.Millisecond)
			log("computation done")
			return nil
		}, nil)
		sys.Join(worker)

		// 3. A handler interrupting a condition wait: the wrapper
		// reacquires the mutex before the handler runs, and the wait
		// returns spuriously.
		sys.Sigaction(pthreads.SIGUSR2, func(_ pthreads.Signal, _ *pthreads.SigInfo, sc *pthreads.SigContext) {
			fmt.Printf("[%10v] %-10s SIGUSR2 handler (interrupting a condition wait)\n",
				sys.Now(), sc.Thread().Name())
		}, 0)
		m := sys.MustMutex(pthreads.MutexAttr{Name: "m"})
		c := sys.NewCond("c")
		done := false
		attr3 := pthreads.DefaultAttr()
		attr3.Name = "waiter"
		attr3.Priority = pthreads.DefaultPrio + 1
		waiter, _ := sys.Create(attr3, func(any) any {
			m.Lock()
			wakeups := 0
			for !done {
				c.Wait(m)
				wakeups++
				log("woke from condition wait (#%d, done=%v)", wakeups, done)
			}
			m.Unlock()
			return wakeups
		}, nil)
		sys.Sleep(pthreads.Millisecond)
		sys.Kill(waiter, pthreads.SIGUSR2) // spurious wakeup
		sys.Sleep(pthreads.Millisecond)
		m.Lock()
		done = true
		c.Signal()
		m.Unlock()
		if v, _ := sys.Join(waiter); v != nil {
			log("waiter saw %v wakeups (first was spurious)", v)
		}

		// 4. Cancellation with cleanup handlers.
		attr4 := pthreads.DefaultAttr()
		attr4.Name = "victim"
		attr4.Priority = pthreads.DefaultPrio + 1
		victim, _ := sys.Create(attr4, func(any) any {
			sys.CleanupPush(func(arg any) {
				log("cleanup handler: releasing %v", arg)
			}, "resources")
			log("sleeping until cancelled")
			sys.Sleep(pthreads.Second)
			return "never"
		}, nil)
		sys.Cancel(victim)
		status, _ := sys.Join(victim)
		log("victim exit status: %v", status)

		st := sys.Stats()
		fmt.Printf("\nsignals: %d internal, %d external; fake calls: %d; cancellations: %d\n",
			st.SignalsInternal, st.SignalsExternal, st.FakeCalls, st.Cancellations)
		fmt.Printf("sigsetmask system calls: %d (at most two per received signal)\n",
			sys.Kernel().SyscallCounts[unixkern.SysSigsetmask])
	})
	if err != nil {
		fmt.Println("system error:", err)
	}
}
