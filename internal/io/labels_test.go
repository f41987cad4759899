package io

import (
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// labelTracer keeps the trace events of one thread.
type labelTracer struct {
	name string
	evs  []core.TraceEvent
}

func (tr *labelTracer) Event(ev core.TraceEvent) {
	if ev.Thread != nil && ev.Thread.Name() == tr.name {
		tr.evs = append(tr.evs, ev)
	}
}

// detail returns the detail of the thread's last event of kind with arg.
func (tr *labelTracer) detail(kind core.EventKind, arg string) (string, bool) {
	for i := len(tr.evs) - 1; i >= 0; i-- {
		if ev := tr.evs[i]; ev.Kind == kind && ev.Arg == arg {
			return ev.Detail, true
		}
	}
	return "", false
}

// loopRouter routes "far:<addr>" back to the same stack as a cross-host
// connection on flow 7, so one system can hold a remote endpoint.
type loopRouter struct{ st *net.Stack }

type loopWire struct{}

func (loopWire) Arrival(dep vtime.Time, _ int, _ bool) (vtime.Time, bool) {
	return dep.Add(50 * vtime.Microsecond), true
}

func (r loopRouter) Route(addr string) (*net.Stack, string, net.Wire, net.Wire, uint64, bool) {
	rest, ok := strings.CutPrefix(addr, "far:")
	if !ok {
		return nil, "", nil, nil, 0, false
	}
	return r.st, rest, loopWire{}, loopWire{}, 7, true
}

// connected returns both ends of an established connection to a fresh
// listener "srv", dialed as addr.
func connected(x *IO, addr string) (client, server *Conn) {
	l, err := x.Listen("srv", 4)
	if err != nil {
		panic(err)
	}
	client, err = x.Dial(addr)
	if err != nil {
		panic(err)
	}
	server, err = l.Accept()
	if err != nil {
		panic(err)
	}
	return client, server
}

// TestWaitLabels blocks a thread named w in each kind of wait and
// compares what every reader of its wait sees with literals: the
// Inspect label, its BlockedReport line, and, with a tracer attached,
// the detail of its "blocked" state event and of a descriptor wait's
// EvIO "block" event. Labels are rendered only where they are read, so
// these literals pin that rendering. w runs above main's priority, so it
// reaches its wait before its Create returns.
func TestWaitLabels(t *testing.T) {
	hi := func(name string) core.Attr { return attr(name, core.DefaultAttr().Priority+2) }
	type setupFn func(s *core.System, x *IO) (w *core.Thread, release func())
	cases := []struct {
		name   string
		setup  setupFn
		label  string // Inspect().WaitingFor
		line   string // the BlockedReport line
		fd     bool   // a descriptor wait: traced as EvIO "block" too
		traced string // the label with a tracer attached, if it differs
		noWait bool   // no "blocked" event (a thread not yet activated)
	}{
		{name: "mutex", label: "mutex m1", line: "  w(#2): mutex mutex m1",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				m := s.MustMutex(core.MutexAttr{Name: "m1"})
				m.Lock()
				w, _ := s.Create(hi("w"), func(any) any { m.Lock(); return m.Unlock() }, nil)
				return w, func() { m.Unlock() }
			}},
		{name: "cond", label: "cond c1", line: "  w(#2): cond cond c1",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				m, c := s.MustMutex(core.MutexAttr{Name: "m1"}), s.NewCond("c1")
				w, _ := s.Create(hi("w"), func(any) any {
					m.Lock()
					c.Wait(m)
					return m.Unlock()
				}, nil)
				return w, func() { m.Lock(); c.Signal(); m.Unlock() }
			}},
		{name: "join", label: "join tgt(#2)", line: "  w(#3): join join tgt(#2)",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				tgt, _ := s.Create(attr("tgt", 0), func(any) any { return nil }, nil)
				w, _ := s.Create(hi("w"), func(any) any { v, _ := s.Join(tgt); return v }, nil)
				return w, nil
			}},
		{name: "read dialing end", label: "read sock4->srv", line: "  w(#2): fd read sock4->srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				c, sc := connected(x, "srv")
				w, _ := s.Create(hi("w"), func(any) any { n, _ := c.Read(1); return n }, nil)
				return w, func() { sc.Write(1) }
			}},
		{name: "read accepting end", label: "read sock5<-srv", line: "  w(#2): fd read sock5<-srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				c, sc := connected(x, "srv")
				w, _ := s.Create(hi("w"), func(any) any { n, _ := sc.Read(1); return n }, nil)
				return w, func() { c.Write(1) }
			}},
		{name: "write dialing end", label: "write sock4->srv", line: "  w(#2): fd write sock4->srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				c, sc := connected(x, "srv")
				w, _ := s.Create(hi("w"), func(any) any { n, _ := c.Write(1 << 20); return n }, nil)
				return w, func() { sc.Close() }
			}},
		{name: "write accepting end", label: "write sock5<-srv", line: "  w(#2): fd write sock5<-srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				c, sc := connected(x, "srv")
				w, _ := s.Create(hi("w"), func(any) any { n, _ := sc.Write(1 << 20); return n }, nil)
				return w, func() { c.Close() }
			}},
		{name: "read remote", label: "read sock4->far:srv#f7", line: "  w(#2): fd read sock4->far:srv#f7", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				x.Stack().SetRouter(loopRouter{x.Stack()})
				c, sc := connected(x, "far:srv")
				w, _ := s.Create(hi("w"), func(any) any { n, _ := c.Read(1); return n }, nil)
				return w, func() { sc.Write(1) }
			}},
		{name: "accept", label: "accept srv", line: "  w(#2): fd accept srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				l, _ := x.Listen("srv", 4)
				w, _ := s.Create(hi("w"), func(any) any { _, err := l.Accept(); return err }, nil)
				return w, func() { l.Close() }
			}},
		{name: "connect", label: "connect srv", line: "  w(#2): fd connect srv", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				x.Listen("srv", 4)
				w, _ := s.Create(hi("w"), func(any) any { _, err := x.Dial("srv"); return err }, nil)
				return w, nil
			}},
		{name: "file read", label: "file read disk", line: "  w(#2): fd file read disk", fd: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				f, _ := x.OpenFile("disk", vtime.Millisecond, 0)
				w, _ := s.Create(hi("w"), func(any) any { n, _ := f.Read(10); return n }, nil)
				return w, nil
			}},
		{name: "sigwait", label: "sigwait {SIGUSR1}", line: "  w(#2): sigwait sigwait {SIGUSR1}",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				set := unixkern.Sigset(0).Add(unixkern.SIGUSR1)
				w, _ := s.Create(hi("w"), func(any) any { sig, _ := s.Sigwait(set); return sig }, nil)
				return w, func() { s.Kill(w, unixkern.SIGUSR1) }
			}},
		{name: "aio", label: "aio read", line: "  w(#2): io aio read",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				w, _ := s.Create(hi("w"), func(any) any { n, _ := s.AioRead(vtime.Millisecond, 10); return n }, nil)
				return w, nil
			}},
		{name: "device", label: "device tape", line: "  w(#2): io device tape",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				dv, _ := s.OpenDevice("tape", vtime.Millisecond, 0)
				w, _ := s.Create(hi("w"), func(any) any { n, _ := dv.Transfer(10); return n }, nil)
				return w, nil
			}},
		{name: "once", label: "once", line: "  w(#3): suspend once",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				var o core.OnceControl
				s.Create(hi("a"), func(any) any {
					return s.Once(&o, func() { s.Sleep(vtime.Millisecond) })
				}, nil)
				w, _ := s.Create(hi("w"), func(any) any { return s.Once(&o, func() {}) }, nil)
				return w, nil
			}},
		{name: "lazy activation", label: "activation", line: "  w(#2): none activation", noWait: true,
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				a := hi("w")
				a.Lazy = true
				w, _ := s.Create(a, func(any) any { return nil }, nil)
				return w, func() { s.Activate(w) }
			}},
		{name: "sleep", label: "sleep", line: "  w(#2): sleep sleep", traced: "sleep 20.00ms",
			setup: func(s *core.System, x *IO) (*core.Thread, func()) {
				w, _ := s.Create(hi("w"), func(any) any { return s.Sleep(20 * vtime.Millisecond) }, nil)
				return w, nil
			}},
	}
	for _, tc := range cases {
		for _, traced := range []bool{false, true} {
			label, line := tc.label, tc.line
			if traced && tc.traced != "" {
				label = tc.traced
				line = strings.TrimSuffix(line, tc.label) + tc.traced
			}
			name := tc.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				tr := &labelTracer{name: "w"}
				cfg := core.Config{}
				if traced {
					cfg.Tracer = tr
				}
				s := core.New(cfg)
				err := s.Run(func() {
					w, release := tc.setup(s, New(s, net.Config{}))
					info, err := s.Inspect(w)
					if err != nil {
						t.Fatalf("Inspect: %v", err)
					}
					if info.WaitingFor != label {
						t.Errorf("Inspect().WaitingFor = %q, want %q", info.WaitingFor, label)
					}
					var got string
					for _, l := range strings.Split(s.BlockedReport(), "\n") {
						if strings.HasPrefix(l, "  w(") {
							got = l
						}
					}
					if got != line {
						t.Errorf("BlockedReport line = %q, want %q", got, line)
					}
					if release != nil {
						release()
					}
					s.Join(w)
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !traced {
					return
				}
				if d, ok := tr.detail(core.EvState, "blocked"); ok == tc.noWait || (ok && d != label) {
					t.Errorf("traced blocked detail = %q (present %v), want %q", d, ok, label)
				}
				if d, ok := tr.detail(core.EvIO, "block"); ok != tc.fd || (ok && d != label) {
					t.Errorf("traced EvIO block detail = %q (present %v), want %q", d, ok, label)
				}
			})
		}
	}
}
