package io

import (
	"fmt"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Lockstep tests for the jacket layer's continuation entry points: a
// thread parked in ContRead must charge, trace, and schedule exactly
// like one parked in Read — the representation (TCB + arena-backed
// read state vs blocked goroutine) is purely host-side. This is the
// fd-wait counterpart of internal/core's cont_lockstep_test.go.

type ioLockstepTracer struct{ lines []string }

func (tr *ioLockstepTracer) Event(ev core.TraceEvent) {
	name := ""
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	tr.lines = append(tr.lines, fmt.Sprintf("%v %v %s %s %s %s",
		ev.At, ev.Kind, name, ev.Obj, ev.Arg, ev.Detail))
}

// ioLockstep runs the goroutine and continuation variants of a jacket
// scenario and diffs traces, final clocks, stats (with the host-side
// representation counters zeroed), and the results each variant
// recorded through rec. It returns the goroutine variant's results.
func ioLockstep(t *testing.T, goroutine, cont func(s *core.System, x *IO, rec func(...any))) string {
	t.Helper()
	run := func(main func(s *core.System, x *IO, rec func(...any))) ([]string, vtime.Time, core.Stats, string) {
		tr := &ioLockstepTracer{}
		var results []string
		rec := func(v ...any) { results = append(results, strings.TrimSuffix(fmt.Sprintln(v...), "\n")) }
		s := core.New(core.Config{Tracer: tr})
		if err := s.Run(func() { main(s, New(s, net.Config{}), rec) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		st := s.Stats()
		st.ContThreads, st.ContParked, st.RunnerBinds = 0, 0, 0
		st.BatonSends, st.RunnerTrampolines = 0, 0
		st.RunnerLive, st.RunnerPeak = 0, 0
		st.ArenaChunks, st.ArenaSlotBytes = 0, 0
		return tr.lines, s.Now(), st, strings.Join(results, "; ")
	}
	gl, gt, gs, gr := run(goroutine)
	cl, ct, cs, cr := run(cont)
	if gt != ct {
		t.Errorf("final clock diverged: goroutine %v, cont %v", gt, ct)
	}
	if gs != cs {
		t.Errorf("stats diverged:\ngoroutine %+v\ncont      %+v", gs, cs)
	}
	if gr != cr {
		t.Errorf("results diverged:\ngoroutine %q\ncont      %q", gr, cr)
	}
	if len(gl) != len(cl) {
		t.Errorf("trace length diverged: goroutine %d, cont %d", len(gl), len(cl))
	}
	for i := 0; i < len(gl) && i < len(cl); i++ {
		if gl[i] != cl[i] {
			t.Fatalf("trace diverged at event %d:\ngoroutine %s\ncont      %s", i, gl[i], cl[i])
		}
	}
	return gr
}

// TestLockstepContRead parks a reader on an empty connection until the
// peer writes — the full SIGIO wake path (park, readiness, completion,
// span-free jacket bookkeeping) in both representations.
func TestLockstepContRead(t *testing.T) {
	scenario := func(read func(s *core.System, c *Conn)) func(s *core.System, x *IO, rec func(...any)) {
		return func(s *core.System, x *IO, _ func(...any)) {
			l, err := x.Listen("srv", 4)
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			c, err := x.Dial("srv")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			sc, err := l.Accept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			read(s, c)
			s.Sleep(vtime.Millisecond) // reader must park before the write
			if _, err := sc.Write(8); err != nil {
				t.Errorf("write: %v", err)
			}
			s.Sleep(vtime.Millisecond)
			sc.Close()
			l.Close()
		}
	}
	attr := core.DefaultAttr()
	attr.Name = "reader"
	ioLockstep(t,
		scenario(func(s *core.System, c *Conn) {
			th, err := s.Create(attr, func(any) any {
				if n, err := c.Read(8); err != nil || n != 8 {
					t.Errorf("Read = %d, %v; want 8, nil", n, err)
				}
				c.Close()
				return nil
			}, nil)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			s.Detach(th)
		}),
		scenario(func(s *core.System, c *Conn) {
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				c.ContRead(k, 8, func(k *core.Cont) {
					if k.Err != nil || k.N != 8 {
						t.Errorf("ContRead = %d, %v; want 8, nil", k.N, k.Err)
					}
					c.Close()
				})
			}, nil)
			if err != nil {
				t.Fatalf("create cont: %v", err)
			}
			s.Detach(th)
		}),
	)
}

func isTimeout(err error) bool {
	e, ok := core.AsErrno(err)
	return ok && e == core.ETIMEDOUT
}

// TestLockstepContReadTimeout expires a bounded read with no data —
// the timed-fd-wait arc (timer arm, ETIMEDOUT, timer cancel) in both
// representations.
func TestLockstepContReadTimeout(t *testing.T) {
	scenario := func(read func(s *core.System, c *Conn) *core.Thread) func(s *core.System, x *IO, rec func(...any)) {
		return func(s *core.System, x *IO, _ func(...any)) {
			l, err := x.Listen("srv", 4)
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			c, err := x.Dial("srv")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			sc, err := l.Accept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			th := read(s, c)
			if _, err := s.Join(th); err != nil {
				t.Errorf("join: %v", err)
			}
			sc.Close()
			l.Close()
		}
	}
	attr := core.DefaultAttr()
	attr.Name = "reader"
	const d = 5 * vtime.Millisecond
	ioLockstep(t,
		scenario(func(s *core.System, c *Conn) *core.Thread {
			th, err := s.Create(attr, func(any) any {
				if n, err := c.ReadTimeout(8, d); !isTimeout(err) || n != 0 {
					t.Errorf("ReadTimeout = %d, %v; want 0, ETIMEDOUT", n, err)
				}
				c.Close()
				return nil
			}, nil)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			return th
		}),
		scenario(func(s *core.System, c *Conn) *core.Thread {
			th, err := s.CreateCont(attr, func(k *core.Cont) {
				c.ContReadTimeout(k, 8, d, func(k *core.Cont) {
					if !isTimeout(k.Err) || k.N != 0 {
						t.Errorf("ContReadTimeout = %d, %v; want 0, ETIMEDOUT", k.N, k.Err)
					}
					c.Close()
				})
			}, nil)
			if err != nil {
				t.Fatalf("create cont: %v", err)
			}
			return th
		}),
	)
}

// readWakeups is the scenario of TestLockstepContReadWakeups: the given
// number of reader threads block in an 8-byte read on one connection,
// then drive wakes them. Each reader records its read's result; main
// joins them all.
func readWakeups(readers int, drive func(s *core.System, sc *Conn, rs []*core.Thread), cont bool) func(s *core.System, x *IO, rec func(...any)) {
	return func(s *core.System, x *IO, rec func(...any)) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) { rec("handler") }, 0)
		l, _ := x.Listen("srv", 4)
		c, _ := x.Dial("srv")
		sc, _ := l.Accept()
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		var rs []*core.Thread
		for i := 0; i < readers; i++ {
			attr.Name = fmt.Sprint("reader", i)
			var th *core.Thread
			if cont {
				th, _ = s.CreateCont(attr, func(k *core.Cont) {
					c.ContRead(k, 8, func(k *core.Cont) { rec(k.N, k.Err) })
				}, nil)
			} else {
				th, _ = s.Create(attr, func(any) any { rec(c.Read(8)); return nil }, nil)
			}
			rs = append(rs, th)
		}
		drive(s, sc, rs)
		for _, th := range rs {
			v, err := s.Join(th)
			rec(v, err)
		}
		sc.Close()
		c.Close()
		l.Close()
	}
}

// TestLockstepContReadWakeups covers the fd-wait arcs other than a
// plain completion: a handled signal (EINTR), cancellation of a blocked
// reader, and a chain wake from one completion carrying data for two
// readers.
func TestLockstepContReadWakeups(t *testing.T) {
	signal := func(s *core.System, _ *Conn, rs []*core.Thread) { s.Kill(rs[0], unixkern.SIGUSR1) }
	cancel := func(s *core.System, _ *Conn, rs []*core.Thread) { s.Cancel(rs[0]) }
	write := func(s *core.System, sc *Conn, _ []*core.Thread) { sc.Write(16) }
	for _, a := range []struct {
		name, want string
		readers    int
		drive      func(s *core.System, sc *Conn, rs []*core.Thread)
	}{
		{"eintr", "handler; 0 EINTR; <nil> <nil>", 1, signal},
		{"cancelled", "PTHREAD_CANCELED <nil>", 1, cancel},
		{"chain", "8 <nil>; 8 <nil>; <nil> <nil>; <nil> <nil>", 2, write},
	} {
		t.Run(a.name, func(t *testing.T) {
			if got := ioLockstep(t, readWakeups(a.readers, a.drive, false), readWakeups(a.readers, a.drive, true)); got != a.want {
				t.Errorf("results = %q, want %q", got, a.want)
			}
		})
	}
}
