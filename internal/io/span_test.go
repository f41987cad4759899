package io

import (
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Span lifecycle edge cases (ISSUE 9 S3): the jacket opens a span per
// blocking call, so the interesting paths are the ones where the call
// does not return normally — EINTR, cancellation unwinding straight
// through the jacket, and connections that die instead of connecting.

// spanByName returns the last recorded span whose name has the prefix.
func spanByName(rec *obs.Recorder, prefix string) (obs.Span, bool) {
	spans := rec.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if strings.HasPrefix(spans[i].Name, prefix) {
			return spans[i], true
		}
	}
	return obs.Span{}, false
}

// runIOSpans is runIO with a span recorder attached to the jacket.
func runIOSpans(t *testing.T, cfg net.Config, main func(s *core.System, x *IO)) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder(0)
	s := core.New(core.Config{Tracer: rec})
	if err := s.Run(func() {
		x := New(s, cfg)
		x.SetSpans(rec)
		main(s, x)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec.CloseDangling(s.Clock().Now())
	return rec
}

// A signal interrupting a blocked Read closes the read span with the
// EINTR annotation — the span ends with the call, not the connection.
func TestSpanReadEINTRAnnotated(t *testing.T) {
	rec := runIOSpans(t, net.Config{}, func(s *core.System, x *IO) {
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) {}, 0)
		l, _ := x.Listen("srv", 4)
		reader, _ := s.Create(attr("reader", 0), func(any) any {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return nil
			}
			c.Read(100) // no data ever arrives; EINTR unblocks it
			c.Close()
			return nil
		}, nil)
		c, err := x.Dial("srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Sleep(10 * vtime.Millisecond)
		if err := s.Kill(reader, unixkern.SIGUSR1); err != nil {
			t.Fatalf("kill: %v", err)
		}
		s.Join(reader)
		c.Close()
	})
	sp, ok := spanByName(rec, "read")
	if !ok {
		t.Fatal("no read span recorded")
	}
	if !sp.Done {
		t.Fatal("interrupted read span left open — EINTR must close it")
	}
	if e := core.EINTR.Or().Error(); sp.Err != e {
		t.Fatalf("interrupted read span annotated %q, want %q", sp.Err, e)
	}
}

// Cancellation unwinds the jacket call without returning, so its span
// cannot close normally; teardown's CloseDangling must mark it
// "unfinished" rather than leave it half-recorded.
func TestSpanCancelledAcceptDangles(t *testing.T) {
	rec := runIOSpans(t, net.Config{}, func(s *core.System, x *IO) {
		l, _ := x.Listen("srv", 4)
		acceptor, _ := s.Create(attr("acceptor", 0), func(any) any {
			l.Accept() // never satisfied; cancellation unwinds from here
			return nil
		}, nil)
		s.Sleep(5 * vtime.Millisecond)
		if err := s.Cancel(acceptor); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		if status, err := s.Join(acceptor); err != nil || status != core.Canceled {
			t.Fatalf("join: %v, %v; want Canceled", status, err)
		}
	})
	sp, ok := spanByName(rec, "accept")
	if !ok {
		t.Fatal("no accept span recorded")
	}
	if !sp.Done || sp.Err != "unfinished" {
		t.Fatalf("cancelled accept span: done=%v err=%q, want a dangling close marked unfinished",
			sp.Done, sp.Err)
	}
	if sp.End < sp.Start {
		t.Fatalf("dangling close went backwards: [%d, %d]", int64(sp.Start), int64(sp.End))
	}
}

// A dial to an unbound address fails the handshake with ECONNREFUSED;
// the dial span closes with that annotation and roots its own trace
// (there is no server span to hand the context to).
func TestSpanDialRefusedAnnotated(t *testing.T) {
	rec := runIOSpans(t, net.Config{}, func(s *core.System, x *IO) {
		if _, err := x.Dial("nobody"); err == nil {
			t.Fatal("dial to unbound address succeeded")
		}
	})
	sp, ok := spanByName(rec, "dial")
	if !ok {
		t.Fatal("no dial span recorded")
	}
	if !sp.Done {
		t.Fatal("refused dial span left open")
	}
	if e := core.ECONNREFUSED.Or().Error(); sp.Err != e {
		t.Fatalf("refused dial span annotated %q, want %q", sp.Err, e)
	}
	if sp.Trace != sp.ID {
		t.Fatalf("refused dial span must root its own trace: trace %016x, id %016x", sp.Trace, sp.ID)
	}
}

// A peer that closes with unread data sends RST; the victim's next
// read span closes annotated with ECONNRESET.
func TestSpanReadResetAnnotated(t *testing.T) {
	rec := runIOSpans(t, net.Config{}, func(s *core.System, x *IO) {
		l, _ := x.Listen("srv", 4)
		srv, _ := s.Create(attr("server", 0), func(any) any {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return nil
			}
			s.Sleep(2 * vtime.Millisecond)
			c.Close() // unread client data pending: RST, not FIN
			return nil
		}, nil)
		c, err := x.Dial("srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := c.Write(64); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, readErr := c.Read(64)
		if e, _ := core.AsErrno(readErr); e != core.ECONNRESET {
			t.Fatalf("read after RST: %v, want ECONNRESET", readErr)
		}
		c.Close()
		s.Join(srv)
	})
	sp, ok := spanByName(rec, "read")
	if !ok {
		t.Fatal("no read span recorded")
	}
	if e := core.ECONNRESET.Or().Error(); !sp.Done || sp.Err != e {
		t.Fatalf("reset read span: done=%v err=%q, want closed with %q", sp.Done, sp.Err, e)
	}
}

// With no recorder attached the jacket's span hooks are pure nil
// checks: an echo round trip records nothing and allocates nothing on
// the recorder side (the 0 allocs/op contract is benchmarked at the
// facade by BenchmarkNetEcho / BenchmarkC10KEcho; this pins the
// recorder accessor semantics).
func TestSpansOffRecordsNothing(t *testing.T) {
	s := runIO(t, net.Config{}, func(s *core.System, x *IO) {
		if x.spans != nil {
			t.Fatal("fresh jacket has a recorder attached")
		}
		l, _ := x.Listen("srv", 4)
		srv, _ := s.Create(attr("server", 0), func(any) any {
			c, err := l.Accept()
			if err != nil {
				return nil
			}
			n, _ := c.Read(64)
			c.Write(n)
			c.Close()
			return nil
		}, nil)
		c, err := x.Dial("srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write(64)
		c.Read(64)
		c.Close()
		s.Join(srv)
	})
	_ = s
}
