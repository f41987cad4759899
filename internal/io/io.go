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
package io

import (
	"strconv"

	"pthreads/internal/arena"
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

	// ops pools the jacket's per-call records (see connOp): one is
	// checked out for the duration of each blocking read/write, a
	// ContRead's included, and returned when the call completes, so
	// steady-state I/O allocates nothing. Arena-backed so the per-call
	// state of many concurrently blocked threads sits in dense chunks
	// rather than scattered heap objects. Safe without a lock: one
	// goroutine runs at a time.
	ops *arena.Arena[connOp]

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
		ops: arena.New[connOp](),
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

// connOp is one blocking read or write's record, the jacket's pooled
// core.FDOp: the endpoint, the attempt's operands and outcome, the span
// the call opened, and — for a ContRead — the caller's step, so a parked
// read is this one record beside its thread's frame.
type connOp struct {
	c     *Conn
	then  core.ContFunc // ContRead's caller step; nil for a blocking call
	want  int           // read: max bytes; write: bytes remaining in this step
	n     int           // bytes moved by the completed attempt
	opErr error
	sctx  net.SpanCtx // span context the attempt's wire messages carry
	ref   obs.SpanRef // the read span (reads only; NoSpan with spans off)
	write bool
}

// Attempt implements core.FDOp: with a span open it brackets the try
// with the stack's span context — so the segments and window updates
// the try emits carry it across the wire — and otherwise (spans off)
// it is the bare try after a two-word compare.
func (op *connOp) Attempt() (bool, bool) {
	if op.sctx != (net.SpanCtx{}) {
		st := op.c.x.st
		st.SetSpanCtx(op.sctx)
		done, more := op.attempt()
		st.SetSpanCtx(net.SpanCtx{})
		return done, more
	}
	return op.attempt()
}

// attempt holds the same logic as the former closures, chain-waking
// residual readiness.
func (op *connOp) attempt() (bool, bool) {
	x, nc := op.c.x, op.c.nc
	if op.write {
		k, e := nc.TryWrite(op.want)
		if e == net.ErrWouldBlock {
			return false, false
		}
		if k > 0 {
			x.sys.CountFDBytes(k)
			if nc.Remote() && x.sys.Tracing() {
				x.sys.TraceNet(nc.FlowOut(), "xmit", strconv.FormatInt(nc.SentBytes(), 10))
			}
		}
		op.n, op.opErr = k, e
		// Chain-wake: space the window still has can serve another writer.
		return true, nc.Writable()
	}
	k, e := nc.TryRead(op.want)
	if e == net.ErrWouldBlock {
		return false, false
	}
	if k > 0 {
		x.sys.CountFDBytes(k)
		if nc.Remote() && x.sys.Tracing() {
			x.sys.TraceNet(nc.FlowIn(), "recv", strconv.FormatInt(nc.RcvdBytes(), 10))
		}
	}
	op.n, op.opErr = k, e
	// Chain-wake: leftover buffered data can serve another reader.
	return true, nc.Readable()
}

// getOp checks an op out of the arena for one blocking call on c.
func (c *Conn) getOp(write bool, want int) *connOp {
	op := c.x.ops.Get() // zeroed
	op.c, op.write, op.want = c, write, want
	return op
}

// putOp returns a completed op to the arena.
func (x *IO) putOp(op *connOp) {
	x.ops.Put(op)
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
	op := c.readStart(max)
	return readDone(op, c.x.sys.FDBlockingOp(c.nc.FD(), core.VerbRead, d, op))
}

// readStart is the half of a read before the park, shared with
// ContRead: it opens the read span and checks out the pooled record,
// carrying the span and its context.
func (c *Conn) readStart(max int) *connOp {
	op := c.getOp(false, max)
	op.ref = c.openConnSpan(obs.KRead, false)
	if op.ref != obs.NoSpan {
		sp := c.x.spans.Span(op.ref)
		op.sctx = net.SpanCtx{Trace: sp.Trace, Span: sp.ID}
	}
	return op
}

// readDone is the half of a read after the wake, shared with ContRead:
// given the jacket call's result err, it recycles the record, closes
// the span, and maps the attempt's outcome to the read's result.
func readDone(op *connOp, err error) (int, error) {
	c, ref, n, opErr := op.c, op.ref, op.n, op.opErr
	c.x.putOp(op)
	if err != nil {
		c.x.closeSpan(ref, err)
		return 0, err
	}
	rerr := mapErr(opErr)
	if ref != obs.NoSpan {
		// The data (or FIN) this read consumed carried the sender's span
		// context; adopting it terminates the wire's flow arrow here.
		c.x.spans.Adopt(ref, c.nc.Flow())
		c.x.closeSpan(ref, rerr)
	}
	return n, rerr
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
	ref := c.openConnSpan(obs.KWrite, true)
	var sctx net.SpanCtx
	if ref != obs.NoSpan {
		sp := c.x.spans.Span(ref)
		sctx = net.SpanCtx{Trace: sp.Trace, Span: sp.ID}
	}
	total := 0
	for total < n {
		op := c.getOp(true, n-total)
		op.sctx = sctx
		err := c.x.sys.FDBlockingOp(c.nc.FD(), core.VerbWrite, 0, op)
		k, opErr := op.n, op.opErr
		c.x.putOp(op)
		total += k
		if err != nil {
			c.x.closeSpan(ref, err)
			return total, err
		}
		if opErr != nil {
			err = mapErr(opErr)
			c.x.closeSpan(ref, err)
			return total, err
		}
	}
	c.x.closeSpan(ref, nil)
	return total, nil
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
