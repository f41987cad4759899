package net

import "pthreads/internal/unixkern"

// This file holds the socket layer's deferred events. Every event is a
// sockOp scheduled by Conn.send: the segment delivery scheduled by
// TryWrite, the window update scheduled by TryRead, the handshake, and
// the FIN and RST that Close and Listener.Close send. A sockOp is the
// unixkern.NetApplier run at the event's due time AND the
// CompletionOwner of the completion it announces, carrying its readiness
// set inline, so no event allocates a closure or an IOCompletion. One op
// lives per scheduled event and returns to the free list of the stack
// whose clock runs it exactly once: either from ApplyNet itself when
// there is nothing to announce, or via IOCompletion.Release once the
// library has demultiplexed the readiness to its wait queues. No locks
// anywhere: the simulation runs one goroutine at a time by construction.
//
// A message between hosts is the same op, minted from the receiving
// stack's free list and run on the receiving host's clock (remote.go).

type opKind int

const (
	// opWindow is TryRead's deferred receive-window update: after the
	// control message crosses the wire, the peer becomes writable.
	opWindow opKind = iota
	// opDeliver is TryWrite's deferred segment delivery: the bytes leave
	// flight and land in the peer's buffer (or provoke an RST if the
	// peer is gone), after the segment's wire time.
	opDeliver
	// opConnect is Dial's local handshake: after the connect delay the
	// connect is refused (no listener, a closed one, or a full backlog)
	// or both endpoints are established and the accepting one is queued
	// on the listener's backlog.
	opConnect
	// opSyn is a cross-host Dial's SYN. It is judged where it lands, on
	// the accepting host, as opConnect is; the verdict crosses back as
	// opRefused or opAccepted.
	opSyn
	opRefused
	opAccepted
	// opFin is a clean Close's FIN: it crosses the wire behind any data
	// queued ahead of it, and EOF becomes visible at the peer.
	opFin
	// opReset is Close's RST when unread inbound data is discarded: the
	// peer sees ECONNRESET unless it closed or was reset already.
	opReset
	// opAbort is Listener.Close's RST for a queued, never-accepted
	// endpoint: its client sees ECONNRESET unless it closed (or, across
	// hosts, was reset already).
	opAbort
)

// label names a cross-host message for the wire's span observer.
func (k opKind) label() string {
	switch k {
	case opSyn:
		return "syn"
	case opDeliver:
		return "data"
	case opFin:
		return "fin"
	}
	return "ctl"
}

// sockOp is one pooled deferred socket operation. conn is always the
// endpoint that sends it: the TryRead or TryWrite, the dialing end for a
// handshake, the accepting end for the verdict on a SYN, and the closed
// end for a FIN or RST. st is the stack whose clock runs it, which is
// conn's own only for a local event.
type sockOp struct {
	st   *Stack
	kind opKind
	conn *Conn
	amt  int // bytes delivered (opDeliver)

	comp  unixkern.IOCompletion
	ready [2]unixkern.IOReady // an established connect announces two
}

// newOp mints an op from the stack free list.
func (st *Stack) newOp(kind opKind, c *Conn, amt int) *sockOp {
	if n := len(st.opFree); n > 0 {
		op := st.opFree[n-1]
		st.opFree[n-1] = nil
		st.opFree = st.opFree[:n-1]
		op.kind, op.conn, op.amt = kind, c, amt
		return op
	}
	return &sockOp{st: st, kind: kind, conn: c, amt: amt}
}

// recycle returns the op to the free list, dropping the connection
// reference so the pool does not pin dead endpoints.
func (op *sockOp) recycle() {
	op.conn = nil
	op.comp = unixkern.IOCompletion{}
	op.st.opFree = append(op.st.opFree, op)
}

// complete stages the op's readiness set and hands out the inline
// completion, with the op as its owner.
func (op *sockOp) complete(rs ...unixkern.IOReady) *unixkern.IOCompletion {
	op.comp.Ready = op.ready[:copy(op.ready[:], rs)]
	op.comp.Owner = op
	return &op.comp
}

// RecycleCompletion implements unixkern.CompletionOwner: the library (or
// the kernel, for a completion that was never posted) is done with the
// readiness set, so the op can be reused.
func (op *sockOp) RecycleCompletion(*unixkern.IOCompletion) { op.recycle() }

// send schedules one socket event from endpoint c; n is a segment's
// payload, or the bytes a read frees. A local event runs on this host's
// clock: a segment or FIN once it has crossed the interface, a handshake
// after the connect delay, and a window update or RST after the
// per-segment setup, without occupying the interface. A cross-host
// event occupies this host's interface (a control message with 0 bytes),
// crosses the wire, and runs on the peer host's clock at its arrival,
// unless an unhealed partition swallows it: a swallowed segment's bytes
// never leave flight, so the writer's window closes, as a real sender's
// does at an unacknowledged window.
func (c *Conn) send(kind opKind, n int) {
	st := c.st
	if c.rem == nil {
		op := st.newOp(kind, c, n)
		switch kind {
		case opDeliver, opFin:
			st.k.NetAt(st.p, st.dev.Occupy(n), op)
		case opConnect:
			st.k.NetAfter(st.p, st.cfg.ConnectDelay, op)
		default:
			st.k.NetAfter(st.p, st.cfg.WireSetup, op)
		}
		return
	}
	bytes := 0
	switch kind {
	case opDeliver:
		bytes = n
		c.rem.sent += int64(n)
	case opWindow:
		c.rem.rcvd += int64(n)
	}
	dep := st.dev.Occupy(bytes)
	at, ok := c.rem.wire.Arrival(dep, bytes, kind == opDeliver)
	carrySpan(c.rem.wire, c.rem.flow, st.spanCtx, dep, at, ok, bytes, kind.label())
	if ok {
		pst := c.rem.peerSt
		pst.k.NetAt(pst.p, at, pst.newOp(kind, c, n))
	}
}

// ApplyNet implements unixkern.NetApplier: the event's state change at
// its due time. A nil return means nothing to announce — the op recycles
// itself in that case.
func (op *sockOp) ApplyNet() *unixkern.IOCompletion {
	c := op.conn
	peer := c.peer
	switch op.kind {
	case opWindow:
		if peer.closed {
			break
		}
		return op.complete(unixkern.IOReady{FD: peer.fd, W: true})
	case opDeliver:
		out := c.out()
		out.inflight -= int32(op.amt)
		switch {
		case c.rem != nil && out.reset:
			// A segment that crosses hosts onto a reset direction is
			// dropped.
		case c.rem != nil && peer.closed:
			// One that lands at a closed endpoint sends an RST back over
			// the wire.
			peer.send(opReset, 0)
		case peer.closed && !c.closed:
			// Locally, data at a closed endpoint resets the writer at once.
			c.markReset()
			return op.complete(unixkern.IOReady{FD: c.fd, R: true, W: true})
		case !peer.closed:
			out.buffered += int32(op.amt)
			return op.complete(unixkern.IOReady{FD: peer.fd, R: true})
		}
	case opConnect, opSyn:
		return op.connect()
	case opRefused, opAccepted:
		// The verdict on a cross-host SYN lands back at the dialing end.
		if peer.closed {
			break
		}
		if op.kind == opRefused {
			peer.refused = true
		} else {
			peer.established = true
		}
		return op.complete(unixkern.IOReady{FD: peer.fd, W: true})
	case opFin:
		c.out().finDelivered = true
		if peer.closed {
			break
		}
		return op.complete(unixkern.IOReady{FD: peer.fd, R: true})
	case opReset, opAbort:
		// An RST is dropped at a peer that closed. A Close's RST, and any
		// that crosses hosts, is dropped at a peer already reset too; a
		// local listener's reaches its never-accepted endpoint's client.
		if peer.closed || (peer.in.reset && (op.kind == opReset || c.rem != nil)) {
			break
		}
		peer.markReset()
		return op.complete(unixkern.IOReady{FD: peer.fd, R: true, W: true})
	default:
		panic("net: unknown sockOp kind")
	}
	op.recycle()
	return nil
}

// connect lands a handshake on the accepting host (op.st) for the
// dialing endpoint op.conn: Dial's local handshake, whose client learns
// the outcome at once, or a cross-host SYN, whose verdict crosses back.
func (op *sockOp) connect() *unixkern.IOCompletion {
	st, client := op.st, op.conn
	server := client.peer
	if client.closed {
		// The caller abandoned the connect (timeout, EINTR).
		op.recycle()
		return nil
	}
	laddr := client.addr
	if op.kind == opSyn {
		laddr = server.addr // the listener's own name for it (see dialRemote)
	}
	l := st.listeners[laddr]
	if l == nil || l.closed || len(l.backlog) >= l.cap {
		st.stats.Refused++
		if op.kind == opSyn {
			server.send(opRefused, 0)
			op.recycle()
			return nil
		}
		client.refused = true
		return op.complete(unixkern.IOReady{FD: client.fd, W: true})
	}
	server.fd = st.p.AllocFD(server)
	server.addr = client.addr
	server.established = true
	l.backlog = append(l.backlog, server)
	if op.kind == opSyn {
		server.send(opAccepted, 0)
		return op.complete(unixkern.IOReady{FD: l.fd, R: true})
	}
	client.established = true
	return op.complete(
		unixkern.IOReady{FD: l.fd, R: true},
		unixkern.IOReady{FD: client.fd, W: true},
	)
}
