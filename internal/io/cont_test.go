package io

import (
	"fmt"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Lockstep tests for the jacket layer's continuation entry points: a
// thread parked in ContRead must charge, trace, and schedule exactly
// like one parked in Read — the representation (TCB and frame vs
// blocked goroutine) is purely host-side. This is the
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

// readEnd is the scenario of TestLockstepContReadResults: one reader,
// below main's priority, blocks in a read of max bytes on c (bounded by
// d when d > 0) and records what the read returned; drive runs once the
// reader has parked, and main then joins it. SIGUSR1's handler records
// that it ran; SIGUSR2's also disables cancellation.
func readEnd(max int, d vtime.Duration, drive func(s *core.System, c, sc *Conn, r *core.Thread), cont bool) func(s *core.System, x *IO, rec func(...any)) {
	return func(s *core.System, x *IO, rec func(...any)) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) { rec("handler") }, 0)
		s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) {
			s.SetCancelState(core.CancelDisabled)
			rec("disabled")
		}, 0)
		l, _ := x.Listen("srv", 4)
		c, _ := x.Dial("srv")
		sc, _ := l.Accept()
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() - 1
		attr.Name = "reader"
		var r *core.Thread
		if cont {
			r, _ = s.CreateCont(attr, func(k *core.Cont) {
				c.ContReadTimeout(k, max, d, func(k *core.Cont) { rec(k.N, k.Err) })
			}, nil)
		} else {
			r, _ = s.Create(attr, func(any) any { rec(c.ReadTimeout(max, d)); return nil }, nil)
		}
		s.Sleep(vtime.Millisecond) // the reader parks
		if drive != nil {
			drive(s, c, sc, r)
		}
		s.Join(r)
		c.Close()
		sc.Close()
		l.Close()
	}
}

// TestLockstepContReadResults holds ContRead's results to Conn.Read's
// on every way a read ends without data: k.N reads 0 and k.Err is the
// error Read returns. The frame's N carries the request until an attempt
// completes, so each wait that ends without one must clear it: a
// timeout, a handled signal, and a cancellation that a handler, run
// between the wake and the retry, turned into EINTR by disabling
// cancellation. The end of stream, a reset and a negative length come
// from the attempt or the call itself.
func TestLockstepContReadResults(t *testing.T) {
	kill := func(s *core.System, _, _ *Conn, r *core.Thread) { s.Kill(r, unixkern.SIGUSR1) }
	cancel := func(s *core.System, _, _ *Conn, r *core.Thread) {
		s.Cancel(r)
		s.Kill(r, unixkern.SIGUSR2)
	}
	eof := func(_ *core.System, _, sc *Conn, _ *core.Thread) { sc.Close() }
	reset := func(s *core.System, c, sc *Conn, _ *core.Thread) {
		c.Write(4)
		s.Sleep(vtime.Millisecond) // the bytes sit unread at sc
		sc.Close()
	}
	for _, row := range []struct {
		name  string
		max   int
		d     vtime.Duration
		drive func(s *core.System, c, sc *Conn, r *core.Thread)
		want  string
	}{
		{"ETIMEDOUT", 8, 5 * vtime.Millisecond, nil, "0 ETIMEDOUT"},
		{"EINTR", 8, 0, kill, "handler; 0 EINTR"},
		{"cancel", 8, 0, cancel, "disabled; 0 EINTR"},
		{"EOF", 8, 0, eof, "0 EOF"},
		{"ECONNRESET", 8, 0, reset, "0 ECONNRESET"},
		{"EINVAL", -1, 0, nil, "0 EINVAL"},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := ioLockstep(t, readEnd(row.max, row.d, row.drive, false), readEnd(row.max, row.d, row.drive, true))
			if got != row.want {
				t.Errorf("results = %q, want %q", got, row.want)
			}
		})
	}
}

// TestSharedEndpointCountsPerCall parks a goroutine Read of 3 bytes and
// a ContRead of 7 on one endpoint and wakes both with one 16-byte burst:
// the completion designates the first reader and the chain wake the
// second. Each read's request and count live in its own frame, not on
// the shared endpoint, so each gets its own count.
func TestSharedEndpointCountsPerCall(t *testing.T) {
	var got []string
	s := core.New(core.Config{})
	err := s.Run(func() {
		x := New(s, net.Config{})
		l, _ := x.Listen("srv", 4)
		c, _ := x.Dial("srv")
		sc, _ := l.Accept()
		attr := core.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		rec := func(v ...any) { got = append(got, fmt.Sprint(v...)) }
		g, _ := s.Create(attr, func(any) any {
			n, err := c.Read(3)
			rec("Read ", n, " ", err)
			return nil
		}, nil)
		k, _ := s.CreateCont(attr, func(k *core.Cont) {
			c.ContRead(k, 7, func(k *core.Cont) { rec("ContRead ", k.N, " ", k.Err) })
		}, nil)
		if d := s.FDWaitDepth(c.nc.FD(), core.FDRead); d != 2 {
			t.Errorf("%d readers wait on the endpoint, want 2", d)
		}
		wakes := s.Stats().FDWakeups
		sc.Write(16)
		s.Join(g)
		s.Join(k)
		if n := s.Stats().FDWakeups - wakes; n != 2 {
			t.Errorf("one burst made %d fd wakeups, want 2 (the completion and the chain)", n)
		}
		c.Close()
		sc.Close()
		l.Close()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := "Read 3 <nil>; ContRead 7 <nil>"; strings.Join(got, "; ") != want {
		t.Errorf("results = %q, want %q", strings.Join(got, "; "), want)
	}
}

// TestParkedContReadsTakeNoRecord parks readers in ContRead and wakes
// them with EOF, with spans off and on. Spans off, no reader takes a
// record from io's free list: the endpoint is the read's operation, and
// the request and results live in each reader's frame. Spans on, each
// parked reader holds one, and gives it back after closing its read
// span on the read's result.
func TestParkedContReadsTakeNoRecord(t *testing.T) {
	const readers = 64
	for _, spans := range []bool{false, true} {
		s := core.New(core.Config{})
		var rec *obs.Recorder
		err := s.Run(func() {
			x := New(s, net.Config{})
			if spans {
				rec = obs.NewRecorder(0)
				x.SetSpans(rec)
			}
			l, _ := x.Listen("srv", readers)
			attr := core.DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			var ths []*core.Thread
			var ends []*Conn
			for i := 0; i < readers; i++ {
				c, _ := x.Dial("srv")
				sc, _ := l.Accept()
				ends = append(ends, sc)
				th, _ := s.CreateCont(attr, func(k *core.Cont) {
					c.ContRead(k, 1, func(k *core.Cont) {
						if k.N != 0 || k.Err != EOF {
							t.Errorf("spans %v: read returned %d, %v; want 0, EOF", spans, k.N, k.Err)
						}
						c.Close()
					})
				}, nil)
				ths = append(ths, th)
			}
			if st := s.Stats(); st.ContParked != readers {
				t.Errorf("spans %v: %d of %d readers parked", spans, st.ContParked, readers)
			}
			for _, sc := range ends {
				sc.Close()
			}
			for _, th := range ths {
				s.Join(th)
			}
			l.Close()
			want := 0
			if spans {
				want = readers
			}
			if len(x.ops) != want {
				t.Errorf("spans %v: %d readers gave back %d records, want %d", spans, readers, len(x.ops), want)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !spans {
			continue
		}
		closed := 0
		for _, sp := range rec.Spans() {
			if sp.Kind == obs.KRead && sp.Done && sp.Err == EOF.Error() {
				closed++
			}
		}
		if closed != readers {
			t.Errorf("%d read spans closed on EOF, want %d", closed, readers)
		}
	}
}
