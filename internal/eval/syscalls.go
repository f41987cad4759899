package eval

import (
	"fmt"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// The paper's "Few Operating System Calls" design objective, made
// measurable: for each library operation, how many UNIX system calls does
// it execute? A true library implementation should answer "zero" for all
// the hot paths and pay the kernel only where UNIX forces it (signal
// sending, timer arming).

// SyscallProfile is the syscall bill of one operation.
type SyscallProfile struct {
	Operation string
	PerOp     map[string]float64 // syscall name -> calls per operation
	Total     float64
}

// measureSyscalls runs op n times in a fresh system and attributes the
// syscall-count delta.
func measureSyscalls(operation string, n int, setup func(s *core.System) (op func(), teardown func())) (SyscallProfile, error) {
	s := core.New(core.Config{Machine: hw.SPARCstationIPX(), PoolSize: n + 8})
	profile := SyscallProfile{Operation: operation, PerOp: map[string]float64{}}
	err := s.Run(func() {
		op, teardown := setup(s)
		op() // warm-up outside the counted window
		before := s.Kernel().SyscallCounts
		for i := 0; i < n; i++ {
			op()
		}
		for sc, v := range s.Kernel().SyscallCounts {
			if d := v - before[sc]; d > 0 {
				profile.PerOp[unixkern.Syscall(sc).String()] = float64(d) / float64(n)
				profile.Total += float64(d) / float64(n)
			}
		}
		if teardown != nil {
			teardown()
		}
	})
	return profile, err
}

// SyscallProfiles measures the syscall bill of the library's main
// operations.
func SyscallProfiles() ([]SyscallProfile, error) {
	const n = 16
	var out []SyscallProfile

	add := func(p SyscallProfile, err error) error {
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}

	if err := add(measureSyscalls("enter/exit Pthreads kernel", n, func(s *core.System) (func(), func()) {
		return s.KernelEnterExit, nil
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("mutex lock/unlock pair", n, func(s *core.System) (func(), func()) {
		m := s.MustMutex(core.MutexAttr{Name: "m"})
		return func() { m.Lock(); m.Unlock() }, nil
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("condvar signal, no waiters", n, func(s *core.System) (func(), func()) {
		c := s.NewCond("c")
		return func() { c.Signal() }, nil
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("thread create (pooled)", n, func(s *core.System) (func(), func()) {
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		var ths []*core.Thread
		return func() {
				th, _ := s.Create(attr, func(any) any { return nil }, nil)
				ths = append(ths, th)
			}, func() {
				for _, th := range ths {
					s.Join(th)
				}
			}
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("context switch (yield pair)", n, func(s *core.System) (func(), func()) {
		stop := false
		attr := core.DefaultAttr()
		th, _ := s.Create(attr, func(any) any {
			for !stop {
				s.Yield()
			}
			return nil
		}, nil)
		return func() { s.Yield() }, func() { stop = true; s.Join(th) }
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("pthread_kill + handler (internal)", n, func(s *core.System) (func(), func()) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) {}, 0)
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			for i := 0; i < n+2; i++ {
				s.Sleep(vtime.Second)
			}
			return nil
		}, nil)
		return func() { s.Kill(th, unixkern.SIGUSR1) }, func() { s.Cancel(th); s.Join(th) }
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("kill(getpid()) + demux (external)", n, func(s *core.System) (func(), func()) {
		s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) {}, 0)
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			for i := 0; i < n+2; i++ {
				s.Sleep(vtime.Second)
			}
			return nil
		}, nil)
		return func() { s.RaiseProcess(unixkern.SIGUSR2) }, func() { s.Cancel(th); s.Join(th) }
	})); err != nil {
		return nil, err
	}

	if err := add(measureSyscalls("sleep 1ms", n, func(s *core.System) (func(), func()) {
		return func() { s.Sleep(vtime.Millisecond) }, nil
	})); err != nil {
		return nil, err
	}

	return out, nil
}

// FormatSyscallProfiles renders the table.
func FormatSyscallProfiles() (string, error) {
	profiles, err := SyscallProfiles()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("UNIX system calls per library operation (\"few operating system calls\")\n")
	for _, p := range profiles {
		if p.Total == 0 {
			fmt.Fprintf(&b, "  %-36s none\n", p.Operation)
			continue
		}
		var parts []string
		names := make([]string, 0, len(p.PerOp))
		for k := range p.PerOp {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			parts = append(parts, fmt.Sprintf("%s ×%.2g", k, p.PerOp[k]))
		}
		fmt.Fprintf(&b, "  %-36s %.2g  (%s)\n", p.Operation, p.Total, strings.Join(parts, ", "))
	}
	return b.String(), nil
}
