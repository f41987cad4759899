package net

import "pthreads/internal/unixkern"

// This file holds the pooled form of the socket layer's deferred events.
// Every local event is a sockOp: the segment delivery scheduled by
// TryWrite, the window update scheduled by TryRead, Dial's handshake,
// and the FIN and RST that Close and Listener.Close send. A sockOp is
// the unixkern.NetApplier run at the event's due time AND the
// CompletionOwner of the completion it announces, carrying its readiness
// set inline, so no event allocates a closure or an IOCompletion. One op
// lives per scheduled event and returns to the stack's free list exactly
// once: either from ApplyNet itself when there is nothing to announce,
// or via IOCompletion.Release once the library has demultiplexed the
// readiness to its wait queues. No locks anywhere: the simulation runs
// one goroutine at a time by construction.
//
// Messages that cross hosts (remote.go) keep the closure form: they land
// on another host's clock through the fabric's wire.

type opKind int

const (
	// opWindow is TryRead's deferred receive-window update: after the
	// control message crosses the wire, the peer becomes writable.
	opWindow opKind = iota
	// opDeliver is TryWrite's deferred segment delivery: the bytes leave
	// flight and land in the peer's buffer (or provoke an RST if the
	// peer is gone), after the segment's wire time.
	opDeliver
	// opConnect is Dial's handshake: after the connect delay the connect
	// is refused (no listener, a closed one, or a full backlog) or both
	// endpoints are established and the accepting one is queued on the
	// listener's backlog.
	opConnect
	// opFin is a clean Close's FIN: it crosses the wire behind any data
	// queued ahead of it, and EOF becomes visible at the peer.
	opFin
	// opReset is Close's RST when unread inbound data is discarded: the
	// peer sees ECONNRESET unless it closed or was reset already.
	opReset
	// opAbort is Listener.Close's RST for a queued, never-accepted
	// endpoint: its client sees ECONNRESET unless it closed.
	opAbort
)

// sockOp is one pooled deferred socket operation. conn is always the
// endpoint whose call scheduled it: the TryRead or TryWrite, the dialing
// end for a handshake, and the closed end for a FIN or RST.
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

// ApplyNet implements unixkern.NetApplier: the event's state change at
// its due time. A nil return means nothing to announce — the op recycles
// itself in that case.
func (op *sockOp) ApplyNet() *unixkern.IOCompletion {
	c := op.conn
	switch op.kind {
	case opWindow:
		peer := c.peer
		if peer.closed {
			op.recycle()
			return nil
		}
		return op.complete(unixkern.IOReady{FD: peer.fd, W: true})
	case opDeliver:
		out := c.out()
		out.inflight -= int32(op.amt)
		peer := c.peer
		if peer.closed {
			// Data arrived at a closed endpoint: RST back to the writer.
			if c.closed {
				op.recycle()
				return nil
			}
			c.markReset()
			return op.complete(unixkern.IOReady{FD: c.fd, R: true, W: true})
		}
		out.buffered += int32(op.amt)
		return op.complete(unixkern.IOReady{FD: peer.fd, R: true})
	case opConnect:
		return op.connect()
	case opFin:
		peer := c.peer
		c.out().finDelivered = true
		if peer.closed {
			op.recycle()
			return nil
		}
		return op.complete(unixkern.IOReady{FD: peer.fd, R: true})
	case opReset, opAbort:
		peer := c.peer
		// A Close's RST is dropped at a peer that is already reset; a
		// listener's reaches its never-accepted endpoint's client unless
		// the client closed.
		if peer.closed || (op.kind == opReset && peer.in.reset) {
			op.recycle()
			return nil
		}
		peer.markReset()
		return op.complete(unixkern.IOReady{FD: peer.fd, R: true, W: true})
	}
	panic("net: unknown sockOp kind")
}

// connect lands Dial's handshake for the dialing endpoint op.conn.
func (op *sockOp) connect() *unixkern.IOCompletion {
	st, client := op.st, op.conn
	if client.closed {
		// The caller abandoned the connect (timeout, EINTR).
		op.recycle()
		return nil
	}
	l := st.listeners[client.addr]
	if l == nil || l.closed || len(l.backlog) >= l.cap {
		client.refused = true
		st.stats.Refused++
		return op.complete(unixkern.IOReady{FD: client.fd, W: true})
	}
	server := client.peer
	server.fd = st.p.AllocFD(server)
	server.addr = client.addr
	server.established = true
	client.established = true
	l.backlog = append(l.backlog, server)
	return op.complete(
		unixkern.IOReady{FD: l.fd, R: true},
		unixkern.IOReady{FD: client.fd, W: true},
	)
}
