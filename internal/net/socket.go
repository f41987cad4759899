package net

import (
	"strconv"

	"pthreads/internal/unixkern"
)

// Listener accepts connections on an address, holding up to cap
// fully-established connections in its backlog.
type Listener struct {
	st      *Stack
	fd      unixkern.FD
	addr    string
	cap     int
	backlog []*Conn
	closed  bool
}

// FD returns the listening descriptor.
func (l *Listener) FD() unixkern.FD { return l.fd }

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.addr }

// Pending reports how many established connections wait in the backlog.
func (l *Listener) Pending() int { return len(l.backlog) }

// TryAccept pops the oldest queued connection, or reports ErrWouldBlock.
func (l *Listener) TryAccept() (*Conn, error) {
	l.st.k.CountSyscall(unixkern.SysAccept)
	if l.closed {
		return nil, ErrClosed
	}
	if len(l.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.backlog[0]
	copy(l.backlog, l.backlog[1:])
	l.backlog[len(l.backlog)-1] = nil // don't pin the shifted-out endpoint
	l.backlog = l.backlog[:len(l.backlog)-1]
	l.st.stats.Accepted++
	return c, nil
}

// Close unbinds the listener and resets every queued, never-accepted
// connection (their clients see ECONNRESET once the RST crosses the
// wire). Further connects to the address are refused.
func (l *Listener) Close() error {
	if l.closed {
		return ErrClosed
	}
	l.st.k.CountSyscall(unixkern.SysClose)
	l.closed = true
	delete(l.st.listeners, l.addr)
	for _, c := range l.backlog {
		c.closed = true
		l.st.p.CloseFD(c.fd)
		if c.rem != nil {
			// The never-accepted endpoint's client lives on another
			// host: the RST crosses the wire.
			l.st.xControl(c, rstArrived)
			continue
		}
		peer := c.peer
		l.st.k.NetAfter(l.st.p, l.st.cfg.WireSetup, func() *unixkern.IOCompletion {
			if peer.closed {
				return nil
			}
			peer.markReset()
			return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: peer.fd, R: true, W: true}}}
		})
	}
	// Clear without releasing capacity (a closed listener keeps no
	// references; the slice header is reused if the Listener ever is).
	for i := range l.backlog {
		l.backlog[i] = nil
	}
	l.backlog = l.backlog[:0]
	l.st.p.CloseFD(l.fd)
	return nil
}

// pipe is one direction of a connection: a bounded receive buffer plus
// the bytes currently crossing the wire toward it.
type pipe struct {
	cap      int
	buffered int // delivered, readable at the receiving endpoint
	inflight int // on the wire

	finSent      bool // the writing side closed cleanly
	finDelivered bool // EOF becomes visible once buffered drains
	reset        bool // the direction died by RST
}

// Conn is one endpoint of a connection. Both endpoints live in the same
// simulated process (the simulation is single-process); each owns the
// pipe that flows toward it.
type Conn struct {
	st *Stack
	// addr is the address the connection was dialed to. It is set when
	// the endpoint gets its descriptor, and with the descriptor it makes
	// the endpoint's name.
	addr string
	peer *Conn
	in   *pipe // data flowing toward this endpoint

	// rem is non-nil when the peer endpoint lives on another host (see
	// remote.go); every single-host connection leaves it nil.
	rem *remote

	fd unixkern.FD

	dialed      bool // the dialing endpoint, not the accepted one
	established bool
	refused     bool
	closed      bool
}

// FD returns the endpoint's descriptor.
func (c *Conn) FD() unixkern.FD { return c.fd }

// Addr returns the address the connection was dialed to.
func (c *Conn) Addr() string { return c.addr }

// Name labels the endpoint in traces: "sock5->srv" at the dialing end,
// "sock6<-srv" at the accepting end, with the flow appended across hosts
// ("sock5->r0:echo#f3"). It is rendered on each call; an endpoint keeps
// only what the name is made of. An accepting endpoint has no name
// until its connection is established.
func (c *Conn) Name() string {
	if c.addr == "" {
		return ""
	}
	arrow := "<-"
	if c.dialed {
		arrow = "->"
	}
	name := "sock" + strconv.Itoa(int(c.fd)) + arrow + c.addr
	if c.rem != nil {
		name += "#f" + strconv.FormatUint(c.rem.flow, 10)
	}
	return name
}

// out is the pipe this endpoint writes into (the peer's inbound pipe).
func (c *Conn) out() *pipe { return c.peer.in }

// markReset kills the whole connection at this endpoint: both directions
// fail with ErrReset from now on (TCP RST semantics).
func (c *Conn) markReset() {
	if !c.in.reset {
		c.st.stats.Resets++
	}
	c.in.reset = true
	c.out().reset = true
	c.in.buffered = 0
}

// ConnectStatus reports the outcome of the non-blocking connect: nil once
// established, ErrRefused if it was refused, ErrWouldBlock while the
// handshake is still in flight.
func (c *Conn) ConnectStatus() error {
	switch {
	case c.closed:
		return ErrClosed
	case c.refused:
		return ErrRefused
	case !c.established:
		return ErrWouldBlock
	}
	return nil
}

// Readable reports whether a TryRead would make progress right now
// (data, EOF, or an error to report). The jacket uses it to chain-wake.
func (c *Conn) Readable() bool {
	if c.closed {
		return true
	}
	return c.in.buffered > 0 || c.in.reset || (c.in.finDelivered && c.in.buffered == 0)
}

// Writable reports whether a TryWrite would make progress right now.
func (c *Conn) Writable() bool {
	if c.closed || c.refused || c.out().reset {
		return true // progress in the sense of reporting the condition
	}
	if !c.established {
		return false
	}
	return c.writeSpace() > 0
}

// writeSpace computes how many bytes a write may admit: the peer's
// receive window (capacity minus buffered minus in flight) clipped by
// the local send buffer (bound on in-flight data).
func (c *Conn) writeSpace() int {
	out := c.out()
	space := out.cap - out.buffered - out.inflight
	if sb := c.st.cfg.SendBuf - out.inflight; space > sb {
		space = sb
	}
	if space < 0 {
		space = 0
	}
	return space
}

// TryRead consumes up to max buffered bytes. Freeing buffer space sends a
// window update that makes the peer writable once it crosses the wire.
// At end of stream it returns (0, EOF); a reset direction reports
// ErrReset; an empty buffer reports ErrWouldBlock.
func (c *Conn) TryRead(max int) (int, error) {
	c.st.k.CountSyscall(unixkern.SysRecv)
	if c.closed {
		return 0, ErrClosed
	}
	if c.in.reset {
		return 0, ErrReset
	}
	if max <= 0 {
		return 0, nil
	}
	n := c.in.buffered
	if n > max {
		n = max
	}
	if n == 0 {
		if c.in.finDelivered {
			return 0, EOF
		}
		return 0, ErrWouldBlock
	}
	c.in.buffered -= n
	c.st.stats.BytesRecvd += int64(n)
	if c.rem != nil {
		c.readRemote(n)
		return n, nil
	}
	c.st.k.NetAfterOp(c.st.p, c.st.cfg.WireSetup, c.st.newOp(opWindow, c, 0))
	return n, nil
}

// TryWrite admits up to n bytes into flight, bounded by the peer's
// receive window and the send buffer (backpressure): the admitted
// segment crosses the wire and lands in the peer's buffer, making the
// peer readable. Writing with no window reports ErrWouldBlock; writing
// into a connection whose data arrives at a closed endpoint provokes a
// reset (observed on a later operation, as TCP does it).
func (c *Conn) TryWrite(n int) (int, error) {
	c.st.k.CountSyscall(unixkern.SysSend)
	switch {
	case c.closed:
		return 0, ErrClosed
	case c.refused:
		return 0, ErrRefused
	case c.out().reset:
		return 0, ErrReset
	case !c.established:
		return 0, ErrWouldBlock
	}
	if n <= 0 {
		return 0, nil
	}
	space := c.writeSpace()
	if space <= 0 {
		return 0, ErrWouldBlock
	}
	if n > space {
		n = space
	}
	c.out().inflight += n
	c.st.stats.BytesSent += int64(n)
	c.st.stats.Segments++
	if c.rem != nil {
		c.writeRemote(n)
		return n, nil
	}
	c.st.dev.SendOp(c.st.p, n, 0, c.st.newOp(opDeliver, c, n))
	return n, nil
}

// Close shuts the endpoint down and releases its descriptor. A clean
// close (inbound data fully read) sends FIN — the peer reads EOF after
// draining its buffer. Closing with unread or in-flight inbound data
// sends RST instead: the peer sees ECONNRESET, as TCP mandates when data
// would be silently lost.
func (c *Conn) Close() error {
	if c.closed {
		return ErrClosed
	}
	c.st.k.CountSyscall(unixkern.SysClose)
	c.closed = true
	peer := c.peer
	if !c.established {
		// Connect still in flight or already refused: just abandon it;
		// the handshake callback sees closed and does nothing.
		c.st.p.CloseFD(c.fd)
		return nil
	}
	unread := c.in.buffered > 0 || c.in.inflight > 0
	c.in.buffered = 0
	if c.rem != nil {
		c.closeRemote(unread)
		c.st.p.CloseFD(c.fd)
		return nil
	}
	switch {
	case c.in.reset || c.out().reset:
		// Already dead; nothing to announce.
	case unread:
		c.st.k.NetAfter(c.st.p, c.st.cfg.WireSetup, func() *unixkern.IOCompletion {
			if peer.closed || peer.in.reset {
				return nil
			}
			peer.markReset()
			return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: peer.fd, R: true, W: true}}}
		})
	default:
		out := c.out()
		out.finSent = true
		// FIN rides the wire behind any data still queued ahead of it.
		c.st.dev.Send(c.st.p, 0, 0, func() *unixkern.IOCompletion {
			out.finDelivered = true
			if peer.closed {
				return nil
			}
			return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: peer.fd, R: true}}}
		})
	}
	c.st.p.CloseFD(c.fd)
	return nil
}
