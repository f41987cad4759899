// Package net simulates a TCP-like socket layer on top of the simulated
// UNIX kernel. It is deliberately a *kernel-side* abstraction: every
// operation is non-blocking (TryAccept, TryRead, TryWrite, a non-blocking
// connect), state transitions that take time ride the unixkern clock, and
// readiness is announced exclusively through SIGIO completions carrying
// descriptor sets. The thread library never appears here; the blocking
// calls a thread sees are built above, by the jacket layer (internal/io),
// from exactly these pieces — the architecture the paper's asynchronous
// I/O section prescribes and the SR/MPD runtime ports implement with
// select-based jackets.
//
// The model: a listener holds a bounded accept backlog; a connection is a
// pair of endpoints joined by two bounded pipes (one per direction), each
// a receive buffer plus bytes in flight on the shared wire (a NetDevice
// with per-segment setup and per-byte latency). Connects complete after a
// configurable handshake delay and are refused when no listener exists or
// its backlog is full. Close delivers FIN (EOF after the buffer drains)
// on a clean shutdown and RST (ECONNRESET at the peer) when unread data
// is discarded or data arrives at a closed endpoint.
//
// Bytes are counts, not payloads, in the same style as the rest of the
// simulation (AioRead models a read by latency and size alone).
package net

import (
	"errors"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Sentinel conditions of the non-blocking interface. The jacket layer
// maps them to errnos (EWOULDBLOCK never escapes: it is what the jacket
// turns into suspension).
var (
	// ErrWouldBlock: the operation cannot make progress now.
	ErrWouldBlock = errors.New("operation would block")
	// ErrClosed: the local endpoint (or listener) was already closed.
	ErrClosed = errors.New("use of closed socket")
	// ErrReset: the connection was reset by the peer.
	ErrReset = errors.New("connection reset by peer")
	// ErrRefused: no listener, a closed listener, or a full backlog.
	ErrRefused = errors.New("connection refused")
	// ErrInUse: a listener already owns the address.
	ErrInUse = errors.New("address already in use")
	// EOF: clean end of stream after the peer's FIN drained.
	EOF = errors.New("EOF")
)

// Config parameterizes a socket stack. Zero values select defaults.
type Config struct {
	// ConnectDelay is the connect/accept handshake latency.
	ConnectDelay vtime.Duration
	// WireSetup is the fixed per-segment cost on the interface; it also
	// prices control messages (window updates, RST).
	WireSetup vtime.Duration
	// WirePerByte is the per-byte transfer cost on the interface.
	WirePerByte vtime.Duration
	// RecvBuf bounds each direction's receive buffer: a writer stalls
	// (backpressure) once this much is buffered or in flight.
	RecvBuf int
	// SendBuf bounds how much one endpoint may have in flight at once.
	SendBuf int
}

func (c Config) withDefaults() Config {
	if c.ConnectDelay == 0 {
		c.ConnectDelay = 200 * vtime.Microsecond
	}
	if c.WireSetup == 0 {
		c.WireSetup = 50 * vtime.Microsecond
	}
	if c.WirePerByte == 0 {
		c.WirePerByte = 100 * vtime.Nanosecond // ~10 MB/s
	}
	if c.RecvBuf == 0 {
		c.RecvBuf = 8192
	}
	if c.SendBuf == 0 {
		c.SendBuf = 8192
	}
	return c
}

// Stats counts socket-layer traffic for the evaluation harness.
type Stats struct {
	Dials      int64 // connects attempted
	Accepted   int64 // connections accepted
	Refused    int64 // connects refused
	Resets     int64 // connections reset
	BytesSent  int64 // bytes admitted into flight
	BytesRecvd int64 // bytes consumed by readers
	Segments   int64 // data segments carried
}

// Stack is one process's socket layer over one network interface.
type Stack struct {
	k   *unixkern.Kernel
	p   *unixkern.Process
	cfg Config
	dev *unixkern.NetDevice

	listeners map[string]*Listener
	stats     Stats
	router    Router // cross-host address resolution; nil in single-host runs
	// spanCtx is the span context of whatever jacket call is currently
	// executing on this stack (see span.go); zero outside one. Safe as a
	// plain field: one goroutine runs at a time across the whole fleet.
	spanCtx SpanCtx

	// opFree pools the per-segment deferred operations (see ops.go).
	opFree []*sockOp
}

// NewStack builds a socket stack for a process.
func NewStack(k *unixkern.Kernel, p *unixkern.Process, cfg Config) *Stack {
	cfg = cfg.withDefaults()
	return &Stack{
		k:         k,
		p:         p,
		cfg:       cfg,
		dev:       k.NewNetDevice("net0", cfg.WireSetup, cfg.WirePerByte),
		listeners: make(map[string]*Listener),
	}
}

// Stats returns a snapshot of the traffic counters.
func (st *Stack) Stats() Stats { return st.stats }

// Device exposes the network interface (diagnostics).
func (st *Stack) Device() *unixkern.NetDevice { return st.dev }

// Config returns the effective (defaulted) configuration.
func (st *Stack) Config() Config { return st.cfg }

// Listen binds a listener with a bounded accept backlog to an address.
func (st *Stack) Listen(addr string, backlog int) (*Listener, error) {
	st.k.CountSyscall(unixkern.SysSocket)
	st.k.CountSyscall(unixkern.SysListen)
	if backlog < 1 {
		backlog = 1
	}
	if _, dup := st.listeners[addr]; dup {
		return nil, ErrInUse
	}
	l := &Listener{st: st, addr: addr, cap: backlog}
	l.fd = st.p.AllocFD(l)
	st.listeners[addr] = l
	return l, nil
}

// Dial starts a non-blocking connect to addr and returns the client
// endpoint immediately, in the connecting state. After the handshake
// delay the connect either establishes both endpoints and queues the
// server side on the listener's backlog — making the listener readable
// and the client writable — or is refused (no listener, or backlog
// full). Poll ConnectStatus, or wait for writability, to learn which.
func (st *Stack) Dial(addr string) (*Conn, error) {
	st.k.CountSyscall(unixkern.SysSocket)
	st.k.CountSyscall(unixkern.SysConnect)
	st.stats.Dials++
	if st.router != nil {
		if rst, laddr, out, back, flow, ok := st.router.Route(addr); ok {
			return st.dialRemote(addr, laddr, rst, out, back, flow)
		}
	}
	client := &Conn{st: st, in: &pipe{cap: st.cfg.RecvBuf}, dialed: true}
	server := &Conn{st: st, in: &pipe{cap: st.cfg.RecvBuf}}
	client.peer, server.peer = server, client
	client.fd = st.p.AllocFD(client)
	client.addr = addr
	st.k.NetAfter(st.p, st.cfg.ConnectDelay, func() *unixkern.IOCompletion {
		if client.closed {
			// The caller abandoned the connect (timeout, EINTR).
			return nil
		}
		l := st.listeners[addr]
		if l == nil || l.closed || len(l.backlog) >= l.cap {
			client.refused = true
			st.stats.Refused++
			return &unixkern.IOCompletion{Ready: []unixkern.IOReady{{FD: client.fd, W: true}}}
		}
		server.fd = st.p.AllocFD(server)
		server.addr = addr
		server.established = true
		client.established = true
		l.backlog = append(l.backlog, server)
		return &unixkern.IOCompletion{Ready: []unixkern.IOReady{
			{FD: l.fd, R: true},
			{FD: client.fd, W: true},
		}}
	})
	return client, nil
}
