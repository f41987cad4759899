// Package io is the jacket layer: it turns the non-blocking socket and
// device interfaces (internal/net, unixkern AIO) into the blocking
// per-thread calls POSIX programs expect — the paper's prescription for
// I/O in a library implementation. A jacket call tries the operation;
// when it would block, the calling thread is enqueued on a per-descriptor
// wait queue ordered by priority and suspended in the library kernel,
// while the rest of the process keeps running. The SIGIO completion that
// announces readiness is demultiplexed to the blocked thread by recipient
// rule 4, which resumes it to retry.
//
// Every jacket call is a cancellation/interruption point: a handled
// signal delivered to the blocked thread interrupts the call with EINTR
// (after its handler runs), a masked signal stays pending and does not,
// and cancellation of a blocked thread unwinds through the cleanup
// handlers. Timed variants return ETIMEDOUT. All of this rides
// core.FDBlockingCall, whose try-enqueue-suspend sequence is atomic with
// respect to completion delivery — the lost-wakeup argument lives there.
//
// A read or write keeps no record of its own: the endpoint (Conn) is the
// call's core.FDOp, its attempt maps the net layer's conditions to
// errnos itself, and the request and the results live in the caller's
// frame — on the goroutine's stack for Read and Write, in the
// continuation for ContRead. Only a call that opened a span checks a
// record out of a pool (spanOp), to carry the span across the wait.
package io

import (
	"strconv"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/vtime"
)

// EOF is the clean end-of-stream condition (the peer closed after all
// data was read). It is a sentinel, not an errno, mirroring read(2)
// returning 0.
var EOF = net.EOF

// IO binds a socket stack to a thread system: the constructor for the
// blocking network interface.
type IO struct {
	sys *core.System
	st  *net.Stack

	// ops is the free list of the records of spanned reads and writes
	// (see spanOp): one is taken for the duration of each read or write
	// that opened a span, and given back when the call completes. With
	// spans off the endpoint is the call's core.FDOp and none is taken.
	// Safe without a lock: one goroutine runs at a time.
	ops []*spanOp

	// spans, when attached, records a span per jacket call (dial,
	// accept, read, write) for the fleet observability plane. Nil —
	// every single-host run and fleets with spans off — costs one nil
	// check per call and zero allocations.
	spans *obs.Recorder
}

// New builds the jacket layer over a fresh socket stack for the system's
// process. Call it inside sys.Run (or before starting threads).
func New(sys *core.System, cfg net.Config) *IO {
	return &IO{
		sys: sys,
		st:  net.NewStack(sys.Kernel(), sys.Process(), cfg),
	}
}

// Stack exposes the underlying non-blocking stack (stats, diagnostics).
func (x *IO) Stack() *net.Stack { return x.st }

// SetSpans attaches the host's span recorder (fleet observability).
func (x *IO) SetSpans(r *obs.Recorder) { x.spans = r }

// openSpan starts a jacket-call span named "<verb> <obj>" on the current
// thread; NoSpan — a single nil check, no allocation, no name built —
// with spans off.
func (x *IO) openSpan(k obs.Kind, verb, obj string) obs.SpanRef {
	if x.spans == nil {
		return obs.NoSpan
	}
	t := x.sys.Current()
	return x.spans.Open(x.sys.Clock().Now(), int32(t.ID()), t.Name(), k, verb+" "+obj)
}

// openConnSpan starts a read or write span on c ("read sock5->srv")
// under the connection's trace context (established by the dial or
// accept span).
func (c *Conn) openConnSpan(k obs.Kind, write bool) obs.SpanRef {
	x := c.x
	if x.spans == nil {
		return obs.NoSpan
	}
	sp := c.spanState()
	name := sp.readName
	if write {
		name = sp.writeName
	}
	t := x.sys.Current()
	return x.spans.OpenUnder(x.sys.Clock().Now(), int32(t.ID()), t.Name(), k, name, sp.trace, sp.parent)
}

// closeSpan ends a jacket-call span, annotating any error (EOF
// included: a read span ending the stream says so). A call that never
// returns — cancellation unwinds the thread — leaves its span open;
// CloseDangling marks it "unfinished" at teardown.
func (x *IO) closeSpan(ref obs.SpanRef, err error) {
	if ref == obs.NoSpan {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	x.spans.Close(ref, x.sys.Clock().Now(), msg)
}

// System returns the thread system the jacket is bound to.
func (x *IO) System() *core.System { return x.sys }

// mapErr converts the net layer's sentinel conditions into the errnos a
// blocking call reports. ErrWouldBlock never reaches callers: the jacket
// converts it into suspension.
func mapErr(err error) error {
	switch err {
	case nil:
		return nil
	case net.ErrReset:
		return core.ECONNRESET.Or()
	case net.ErrRefused:
		return core.ECONNREFUSED.Or()
	case net.ErrClosed:
		return core.EBADF.Or()
	case net.ErrInUse:
		return core.EADDRINUSE.Or()
	case net.EOF:
		return EOF
	}
	return err
}

// Listener is the blocking face of a net.Listener.
type Listener struct {
	x  *IO
	nl *net.Listener
}

// Listen binds a listener with a bounded accept backlog.
func (x *IO) Listen(addr string, backlog int) (*Listener, error) {
	nl, err := x.st.Listen(addr, backlog)
	if err != nil {
		return nil, mapErr(err)
	}
	if x.sys.Tracing() {
		x.sys.TraceNet(addr, "listen", "")
	}
	return &Listener{x: x, nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr() }

// Accept blocks until an established connection can be popped from the
// backlog and returns it. It is a cancellation point; a handled signal
// interrupts it with EINTR; closing the listener fails it with EBADF.
func (l *Listener) Accept() (*Conn, error) { return l.accept(0) }

// AcceptTimeout is Accept bounded by d of virtual time (ETIMEDOUT).
func (l *Listener) AcceptTimeout(d vtime.Duration) (*Conn, error) { return l.accept(d) }

func (l *Listener) accept(d vtime.Duration) (*Conn, error) {
	ref := l.x.openSpan(obs.KAccept, "accept", l.nl.Addr())
	var nc *net.Conn
	var opErr error
	err := l.x.sys.FDBlockingCall(l.nl.FD(), core.VerbAccept, d,
		func() (bool, bool) {
			c, e := l.nl.TryAccept()
			if e == net.ErrWouldBlock {
				return false, false
			}
			nc, opErr = c, e
			// Chain-wake: more queued connections can serve more acceptors.
			return true, l.nl.Pending() > 0
		})
	if err != nil {
		l.x.closeSpan(ref, err)
		return nil, err
	}
	if opErr != nil {
		err = mapErr(opErr)
		l.x.closeSpan(ref, err)
		return nil, err
	}
	if l.x.sys.Tracing() {
		l.x.sys.TraceNet(nc.Name(), "accept", "")
		if nc.Remote() {
			// Cross-host happens-before: accepting joins the dialing
			// host's clock at its connect (see explore.CheckRaces).
			l.x.sys.TraceNet(nc.FlowIn(), "recv", "0")
		}
	}
	c := &Conn{x: l.x, nc: nc}
	if ref != obs.NoSpan {
		// A remote connection's SYN carried the dialer's span context;
		// adopting it stitches dial span → wire arrow → accept span.
		l.x.spans.Adopt(ref, nc.Flow())
		sp := l.x.spans.Span(ref)
		st := c.spanState()
		st.trace, st.parent = sp.Trace, sp.ID
		l.x.closeSpan(ref, nil)
	}
	return c, nil
}

// Close unbinds the listener. Threads blocked in Accept are woken and
// fail with EBADF; queued, never-accepted connections are reset.
func (l *Listener) Close() error {
	fd := l.nl.FD()
	if l.x.sys.Tracing() {
		l.x.sys.TraceNet(l.nl.Addr(), "close", "listener")
	}
	err := mapErr(l.nl.Close())
	l.x.sys.FDKickAll(fd)
	return err
}

// Conn is the blocking face of a net.Conn endpoint. Its wait labels
// ("read sock5->srv") are the core's to render, from the descriptor,
// only where one is read.
type Conn struct {
	x  *IO
	nc *net.Conn

	// spans is the endpoint's span state, allocated only with spans on.
	spans *connSpans
}

// connSpans is what the read and write spans on an endpoint open with:
// the trace context of the dial or accept span that produced it (zero
// if spans were off then) and their names, rendered once.
type connSpans struct {
	trace, parent       uint64
	readName, writeName string
}

// spanState returns the endpoint's span state, building it on first use.
func (c *Conn) spanState() *connSpans {
	if c.spans == nil {
		name := c.nc.Name()
		c.spans = &connSpans{readName: "read " + name, writeName: "write " + name}
	}
	return c.spans
}

// Attempt implements core.FDOp, so the endpoint is its own blocking
// read's and write's operation and a call needs no record: one
// non-blocking try of the verb's transfer for up to want bytes, with
// the net layer's condition mapped to the errno the call returns, and
// chain-waking residual readiness.
func (c *Conn) Attempt(verb core.FDVerb, want int) (n int, done, more bool, err error) {
	x, nc := c.x, c.nc
	if verb == core.VerbWrite {
		k, e := nc.TryWrite(want)
		if e == net.ErrWouldBlock {
			return 0, false, false, nil
		}
		if k > 0 {
			x.sys.CountFDBytes(k)
			if nc.Remote() && x.sys.Tracing() {
				x.sys.TraceNet(nc.FlowOut(), "xmit", strconv.FormatInt(nc.SentBytes(), 10))
			}
		}
		// Chain-wake: space the window still has can serve another writer.
		return k, true, nc.Writable(), mapErr(e)
	}
	k, e := nc.TryRead(want)
	if e == net.ErrWouldBlock {
		return 0, false, false, nil
	}
	if k > 0 {
		x.sys.CountFDBytes(k)
		if nc.Remote() && x.sys.Tracing() {
			x.sys.TraceNet(nc.FlowIn(), "recv", strconv.FormatInt(nc.RcvdBytes(), 10))
		}
	}
	// Chain-wake: leftover buffered data can serve another reader.
	return k, true, nc.Readable(), mapErr(e)
}

// spanOp is the record of a read or write that opened a span: the
// endpoint, the span, the span context the call's wire messages carry,
// and whether an attempt completed. It is the call's core.FDOp in the
// endpoint's place, taken from the IO's free list for the call.
type spanOp struct {
	c         *Conn
	sctx      net.SpanCtx
	ref       obs.SpanRef
	completed bool

	// then is a spanned ContRead's caller step. done is its completion
	// step, contDone bound to this record once, when the record is
	// made: records are reused, so a spanned ContRead allocates nothing.
	then, done core.ContFunc
}

// Attempt implements core.FDOp: the endpoint's attempt, bracketed with
// the span context so that the segments and window updates it emits
// carry it across the wire.
func (op *spanOp) Attempt(verb core.FDVerb, want int) (n int, done, more bool, err error) {
	st := op.c.x.st
	st.SetSpanCtx(op.sctx)
	n, done, more, err = op.c.Attempt(verb, want)
	st.SetSpanCtx(net.SpanCtx{})
	op.completed = done
	return n, done, more, err
}

// fdOp opens a read or write span on c and returns the call's FDOp: the
// endpoint itself, or with a span open a record carrying it (nil when
// there is none).
func (c *Conn) fdOp(k obs.Kind, write bool) (core.FDOp, *spanOp) {
	ref := c.openConnSpan(k, write)
	if ref == obs.NoSpan {
		return c, nil
	}
	x := c.x
	var op *spanOp
	if n := len(x.ops); n > 0 {
		op = x.ops[n-1]
		x.ops = x.ops[:n-1]
	} else {
		op = new(spanOp)
		op.done = op.contDone
	}
	sp := x.spans.Span(ref)
	op.c, op.ref, op.sctx, op.completed = c, ref, net.SpanCtx{Trace: sp.Trace, Span: sp.ID}, false
	return op, op
}

// put gives the record back to the IO's free list.
func (op *spanOp) put() {
	x := op.c.x
	op.c, op.then = nil, nil
	x.ops = append(x.ops, op)
}

// readDone is the half of a spanned read after the wait, shared with
// ContRead: it gives the record back and closes the span on the read's
// result.
func (op *spanOp) readDone(n int, err error) (int, error) {
	c, ref, completed := op.c, op.ref, op.completed
	op.put()
	if completed {
		// The data (or FIN) this read consumed carried the sender's span
		// context; adopting it terminates the wire's flow arrow here.
		c.x.spans.Adopt(ref, c.nc.Flow())
	}
	c.x.closeSpan(ref, err)
	return n, err
}

// Name labels the endpoint in traces.
func (c *Conn) Name() string { return c.nc.Name() }

// Dial connects to addr, blocking through the handshake. A missing
// listener or full backlog fails with ECONNREFUSED. Dial is a
// cancellation point and interruptible with EINTR; on any failure the
// half-open endpoint is abandoned.
func (x *IO) Dial(addr string) (*Conn, error) { return x.dial(addr, 0) }

// DialTimeout is Dial bounded by d of virtual time (ETIMEDOUT).
func (x *IO) DialTimeout(addr string, d vtime.Duration) (*Conn, error) { return x.dial(addr, d) }

func (x *IO) dial(addr string, d vtime.Duration) (*Conn, error) {
	ref := x.openSpan(obs.KDial, "dial", addr)
	if ref != obs.NoSpan {
		// The SYN departs inside Dial; bracket it with the dial span's
		// context so the handshake message carries the trace.
		sp := x.spans.Span(ref)
		x.st.SetSpanCtx(net.SpanCtx{Trace: sp.Trace, Span: sp.ID})
	}
	nc, err := x.st.Dial(addr)
	if ref != obs.NoSpan {
		x.st.SetSpanCtx(net.SpanCtx{})
	}
	if err != nil {
		err = mapErr(err)
		x.closeSpan(ref, err)
		return nil, err
	}
	if x.sys.Tracing() {
		x.sys.TraceNet(nc.Name(), "connect", "")
		if nc.Remote() {
			// The cross-host handshake edge is stamped at connect START
			// — the SYN departs now, so its snapshot must precede the
			// remote accept in the merged fleet timeline.
			x.sys.TraceNet(nc.FlowOut(), "xmit", "0")
		}
	}
	var opErr error
	err = x.sys.FDBlockingCall(nc.FD(), core.VerbConnect, d,
		func() (bool, bool) {
			e := nc.ConnectStatus()
			if e == net.ErrWouldBlock {
				return false, false
			}
			opErr = e
			return true, false
		})
	if err == nil && opErr != nil {
		err = mapErr(opErr)
	}
	if err != nil {
		nc.Close()
		x.closeSpan(ref, err)
		return nil, err
	}
	c := &Conn{x: x, nc: nc}
	if ref != obs.NoSpan {
		sp := x.spans.Span(ref)
		st := c.spanState()
		st.trace, st.parent = sp.Trace, sp.ID
		x.closeSpan(ref, nil)
	}
	return c, nil
}

// Read blocks until at least one byte (up to max) is available and
// consumes it, returning the count. At end of stream it returns (0, EOF);
// a reset connection reports ECONNRESET. Read is a cancellation point and
// interruptible with EINTR.
func (c *Conn) Read(max int) (int, error) { return c.read(max, 0) }

// ReadTimeout is Read bounded by d of virtual time (ETIMEDOUT).
func (c *Conn) ReadTimeout(max int, d vtime.Duration) (int, error) { return c.read(max, d) }

func (c *Conn) read(max int, d vtime.Duration) (int, error) {
	if max < 0 {
		return 0, core.EINVAL.Or()
	}
	op, sp := c.fdOp(obs.KRead, false)
	n, err := c.x.sys.FDBlockingOp(c.nc.FD(), core.VerbRead, d, op, max)
	if sp != nil {
		return sp.readDone(n, err)
	}
	return n, err
}

// Write blocks until all n bytes have been admitted into flight,
// stalling under backpressure when the peer's receive window closes. It
// returns how many bytes were written, which is short only on error
// (EINTR, ETIMEDOUT, ECONNRESET, cancellation). Write is a cancellation
// point.
func (c *Conn) Write(n int) (int, error) {
	if n < 0 {
		return 0, core.EINVAL.Or()
	}
	op, sp := c.fdOp(obs.KWrite, true)
	total := 0
	var err error
	for total < n && err == nil {
		var k int
		k, err = c.x.sys.FDBlockingOp(c.nc.FD(), core.VerbWrite, 0, op, n-total)
		total += k
	}
	if sp != nil {
		ref := sp.ref
		sp.put()
		c.x.closeSpan(ref, err)
	}
	return total, err
}

// Close shuts the endpoint down. Threads blocked on it are woken: readers
// and writers racing the close observe EBADF, and the peer sees EOF (clean
// close) or ECONNRESET (unread data discarded).
func (c *Conn) Close() error {
	fd := c.nc.FD()
	if c.x.sys.Tracing() {
		c.x.sys.TraceNet(c.nc.Name(), "close", "")
	}
	err := mapErr(c.nc.Close())
	c.x.sys.FDKickAll(fd)
	return err
}
