package net

import (
	"strconv"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Cross-host connections. A Stack normally joins endpoints that live in
// the same simulated process; with a Router attached (the fabric's
// virtual datacenter), Dial may instead resolve an address to a stack on
// a *different* simulated host. The two endpoints then share their pipe
// structs exactly as local ones do — safe because the whole fleet runs
// one goroutine at a time — but every message between them (SYN,
// establishment, data segments, window updates, FIN, RST) departs from
// the sender's NIC and is scheduled as an absolute-time arrival event on
// the *receiving host's* clock, at an instant computed by the Wire: base
// latency, plus loss (data segments redeliver one RTO later) and
// partition holds. Nothing here runs in single-host configurations: with
// a nil router every code path below is unreachable and Dial is
// byte-identical to its pre-fabric behavior.

// Wire models one direction of a cross-host link. Implemented by the
// fabric.
type Wire interface {
	// Arrival maps a segment's departure instant (when its last byte
	// left the sending NIC) and size to its arrival instant at the
	// receiving host. data distinguishes payload segments — subject to
	// probabilistic loss with RTO-delayed redelivery — from control
	// messages (handshakes, window updates, FIN/RST), which are only
	// delayed, never dropped, except by an unhealed partition:
	// ok=false means the segment never arrives at all.
	Arrival(dep vtime.Time, bytes int, data bool) (at vtime.Time, ok bool)
}

// Router resolves addresses served by other hosts. Implemented by the
// fabric; nil (every single-host run) keeps Dial purely local.
type Router interface {
	// Route resolves addr to the remote stack owning it, the address as
	// the remote host knows it (its listeners bind the bare form), the
	// wire carrying this host's segments toward it, the reverse wire,
	// and a fresh fleet-unique flow id. ok=false: the address is not
	// remote (fall through to local delivery).
	Route(addr string) (peer *Stack, laddr string, out, back Wire, flow uint64, ok bool)
}

// SetRouter attaches the cross-host address resolver.
func (st *Stack) SetRouter(r Router) { st.router = r }

// remote is the extra state of a cross-host endpoint.
type remote struct {
	peerSt *Stack // stack hosting the peer endpoint
	wire   Wire   // carries this endpoint's segments toward the peer
	flow   uint64
	sent   int64 // cumulative payload bytes admitted into flight
	rcvd   int64 // cumulative payload bytes consumed by TryRead
}

// Remote reports whether the endpoint's peer lives on another host.
func (c *Conn) Remote() bool { return c.rem != nil }

// FlowOut labels the cross-host byte stream this endpoint writes into
// ("f7>" on the dialing side, "f7<" on the accepting side); FlowIn labels
// the stream it reads. The fleet race checker joins the sender's vector
// clock into the receiver's on matching labels (cumulative-byte edges).
func (c *Conn) FlowOut() string { return flowLabel(c.rem.flow, c.dialed) }

// FlowIn labels the stream this endpoint reads; see FlowOut.
func (c *Conn) FlowIn() string { return flowLabel(c.rem.flow, !c.dialed) }

func flowLabel(flow uint64, clientOrigin bool) string {
	dir := "<"
	if clientOrigin {
		dir = ">"
	}
	return "f" + strconv.FormatUint(flow, 10) + dir
}

// SentBytes returns the cumulative payload bytes this endpoint has
// admitted into flight (cross-host endpoints only).
func (c *Conn) SentBytes() int64 { return c.rem.sent }

// RcvdBytes returns the cumulative payload bytes this endpoint has read.
func (c *Conn) RcvdBytes() int64 { return c.rem.rcvd }

// dialRemote is Dial's cross-host path: the SYN departs the local NIC
// and lands on the remote host's clock; everything afterwards —
// refusal, establishment, data — is event-driven on whichever host the
// state lives. The connection, both pipes included, is allocated here,
// like the local path, so window bookkeeping works before the handshake
// completes.
func (st *Stack) dialRemote(addr, laddr string, rst *Stack, out, back Wire, flow uint64) (*Conn, error) {
	client, server := newConnection(st, rst)
	client.rem = &remote{peerSt: rst, wire: out, flow: flow}
	server.rem = &remote{peerSt: st, wire: back, flow: flow}
	client.fd = st.p.AllocFD(client)
	client.addr = addr
	dep := st.dev.Occupy(0)
	at, ok := out.Arrival(dep, 0, false)
	carrySpan(out, flow, st.spanCtx, dep, at, ok, 0, "syn")
	if ok {
		rst.k.NetAt(rst.p, at, func() *unixkern.IOCompletion {
			return rst.synArrived(client, server, addr, laddr)
		})
	}
	// else: the SYN vanished into an unhealed partition; the client
	// never hears back and its DialTimeout fires.
	return client, nil
}

// synArrived runs on the accepting host when the SYN lands: refuse
// (listener missing, closed, or backlog full) or establish and enqueue.
// Either outcome is announced back to the dialing host over the reverse
// wire.
func (rst *Stack) synArrived(client, server *Conn, addr, laddr string) *unixkern.IOCompletion {
	if client.closed {
		// The caller abandoned the connect before the SYN landed.
		return nil
	}
	l := rst.listeners[laddr]
	if l == nil || l.closed || len(l.backlog) >= l.cap {
		rst.stats.Refused++
		rst.xControl(server, func(c *Conn) *unixkern.IOCompletion {
			if c.closed {
				return nil
			}
			c.refused = true
			return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: c.fd, W: true}}}
		})
		return nil
	}
	server.fd = rst.p.AllocFD(server)
	server.addr = addr
	server.established = true
	l.backlog = append(l.backlog, server)
	rst.xControl(server, func(c *Conn) *unixkern.IOCompletion {
		if c.closed || c.refused {
			return nil
		}
		c.established = true
		return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: c.fd, W: true}}}
	})
	return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: l.fd, R: true}}}
}

// xControl sends a control message from endpoint `from`'s host to its
// peer: it occupies the local NIC, crosses the wire, and runs apply
// (with the peer endpoint) on the peer's host at the arrival instant.
// Control messages are never lost, but an unhealed partition swallows
// them (apply simply never runs).
func (st *Stack) xControl(from *Conn, apply func(peer *Conn) *unixkern.IOCompletion) {
	dep := st.dev.Occupy(0)
	at, ok := from.rem.wire.Arrival(dep, 0, false)
	carrySpan(from.rem.wire, from.rem.flow, st.spanCtx, dep, at, ok, 0, "ctl")
	if !ok {
		return
	}
	peer, pst := from.peer, from.rem.peerSt
	pst.k.NetAt(pst.p, at, func() *unixkern.IOCompletion {
		return apply(peer)
	})
}

// writeRemote is TryWrite's cross-host tail: the admitted bytes occupy
// the sender's NIC and land in the peer's buffer on the peer's host. A
// data segment may be lost (redelivered one RTO later by the wire) or
// swallowed by a partition — in-flight bytes then never drain, the
// window closes, and the writer stalls exactly like a real sender
// staring at an unacknowledged window.
func (c *Conn) writeRemote(n int) {
	c.rem.sent += int64(n)
	dep := c.st.dev.Occupy(n)
	at, ok := c.rem.wire.Arrival(dep, n, true)
	carrySpan(c.rem.wire, c.rem.flow, c.st.spanCtx, dep, at, ok, n, "data")
	if !ok {
		return
	}
	peer, pst := c.peer, c.rem.peerSt
	pst.k.NetAt(pst.p, at, func() *unixkern.IOCompletion {
		p := &peer.in
		p.inflight -= int32(n)
		if p.reset {
			return nil
		}
		if peer.closed {
			// Data arrived at a closed endpoint: RST back to the writer.
			pst.xControl(peer, rstArrived)
			return nil
		}
		p.buffered += int32(n)
		return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: peer.fd, R: true}}}
	})
}

// rstArrived applies an RST at its target endpoint.
func rstArrived(tgt *Conn) *unixkern.IOCompletion {
	if tgt.closed || tgt.in.reset {
		return nil
	}
	tgt.markReset()
	return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: tgt.fd, R: true, W: true}}}
}

// readRemote is TryRead's cross-host tail: the receive-window update
// crosses the reverse wire and makes the writer writable on its own
// host.
func (c *Conn) readRemote(n int) {
	c.rem.rcvd += int64(n)
	c.st.xControl(c, func(writer *Conn) *unixkern.IOCompletion {
		if writer.closed {
			return nil
		}
		return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: writer.fd, W: true}}}
	})
}

// closeRemote is Close's cross-host tail for an established endpoint:
// clean shutdown sends FIN (EOF at the peer once its buffer drains);
// closing with unread or in-flight inbound data sends RST. Nothing is
// mutated at the peer until the message actually arrives — during its
// flight the peer may keep writing toward the closed endpoint, exactly
// as TCP allows.
func (c *Conn) closeRemote(unread bool) {
	switch {
	case c.in.reset || c.out().reset:
		// Already dead; nothing to announce.
	case unread:
		c.st.xControl(c, rstArrived)
	default:
		out := c.out()
		out.finSent = true
		// The FIN departs behind any data still queued on the NIC.
		dep := c.st.dev.Occupy(0)
		at, ok := c.rem.wire.Arrival(dep, 0, false)
		carrySpan(c.rem.wire, c.rem.flow, c.st.spanCtx, dep, at, ok, 0, "fin")
		if ok {
			peer, pst := c.peer, c.rem.peerSt
			pst.k.NetAt(pst.p, at, func() *unixkern.IOCompletion {
				out.finDelivered = true
				if peer.closed {
					return nil
				}
				return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: peer.fd, R: true}}}
			})
		}
	}
}
