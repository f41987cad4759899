package net

import (
	"strconv"

	"pthreads/internal/vtime"
)

// Cross-host connections. A Stack normally joins endpoints that live in
// the same simulated process; with a Router attached (the fabric's
// virtual datacenter), Dial may instead resolve an address to a stack on
// a *different* simulated host. The two endpoints then share their pipe
// structs exactly as local ones do — safe because the whole fleet runs
// one goroutine at a time — but every message between them (SYN, the
// verdict on it, data segments, window updates, FIN, RST) departs from
// the sender's NIC and lands as a pooled socket op on the *receiving
// host's* clock (Conn.send in ops.go), at an instant computed by the
// Wire: base latency, plus loss (data segments redeliver one RTO later)
// and partition holds. Nothing here runs in single-host configurations:
// with a nil router every endpoint's rem stays nil and Dial is
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

// remoteConnection is a cross-host connection: both endpoints and
// their cross-host state in one object, made only by dialRemote, so a
// local connection stays the bare 128 B connection.
type remoteConnection struct {
	connection
	rem [2]remote // the dialing end's, then the accepting end's
}

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

// dialRemote is Dial's cross-host path. The connection, both pipes and
// both endpoints' remote state included, is allocated here in one
// object, like the local path, so window bookkeeping works before the
// handshake completes. The SYN departs the local NIC and is judged
// where it lands; until then the accepting end holds the listener's
// own name for the address, which the router resolved.
func (st *Stack) dialRemote(addr, laddr string, rst *Stack, out, back Wire, flow uint64) (*Conn, error) {
	rc := new(remoteConnection)
	client, server := rc.init(st, rst)
	rc.rem = [2]remote{{peerSt: rst, wire: out, flow: flow}, {peerSt: st, wire: back, flow: flow}}
	client.rem, server.rem = &rc.rem[0], &rc.rem[1]
	client.fd = st.p.AllocFD(client)
	client.addr = addr
	server.addr = laddr
	client.send(opSyn, 0)
	return client, nil
}
