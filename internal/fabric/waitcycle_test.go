package fabric

import (
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// TestWaitCycleTwoReaders runs two hosts that each accept the other's
// connection and then read from it, so each waits on a flow only the
// other could feed, while a third host keeps the fleet running. The
// wait-cycle check must report the pair.
func TestWaitCycleTwoReaders(t *testing.T) {
	reader := func(peer string) func(h *Host) error {
		return func(h *Host) error {
			l, err := h.IO.Listen("in", 4)
			if err != nil {
				return err
			}
			if _, err := h.IO.Dial(peer + ":in"); err != nil {
				return err
			}
			c, err := l.Accept()
			if err != nil {
				return err
			}
			_, err = c.Read(1) // nobody ever writes
			return err
		}
	}
	f, err := New(Config{
		Hosts: []HostSpec{
			{Name: "a", Body: reader("b")},
			{Name: "b", Body: reader("a")},
			{Name: "c", Body: func(h *Host) error {
				for i := 0; i < 20; i++ {
					h.Sys.Sleep(vtime.Millisecond)
				}
				return nil
			}},
		},
		Obs: ObsConfig{WaitCycle: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err == nil {
		t.Fatalf("Run: want the fleet deadlock once c exits")
	}
	var cycles []FleetFinding
	for _, fd := range f.ObsReport().Findings {
		if fd.Kind == "wait-cycle" {
			cycles = append(cycles, fd)
		}
	}
	want := "hosts wait on each other's flows: a -> b -> a"
	if len(cycles) != 1 || cycles[0].Detail != want {
		t.Fatalf("wait-cycle findings %+v, want one: %q", cycles, want)
	}
}

// TestBlockedFlowsIgnoresNames checks that only a descriptor wait makes
// a wait edge: a thread blocked on a mutex has none, even when its name
// and the mutex's look like flow labels ("x#f1", "m#f2") in the
// blocked-thread report.
func TestBlockedFlowsIgnoresNames(t *testing.T) {
	s := core.New(core.Config{})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "m#f2"})
		m.Lock()
		a := core.DefaultAttr()
		a.Name = "x#f1"
		a.Priority++
		th, _ := s.Create(a, func(any) any { m.Lock(); return m.Unlock() }, nil)
		if got := blockedFlows(s); len(got) != 0 {
			t.Errorf("blockedFlows = %v, want none", got)
		}
		m.Unlock()
		s.Join(th)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
