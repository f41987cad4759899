package unixkern

import "pthreads/internal/vtime"

// This file gives the simulated kernel a network side, in the same style
// as the asynchronous disk interface in device.go: state transitions that
// take (virtual) time are scheduled on the clock, and when one fires the
// kernel announces the descriptors it made ready by posting SIGIO with an
// IOCompletion datum. The thread library demultiplexes that completion to
// its per-descriptor wait queues — the paper's recipient rule 4 ("I/O
// completion → the thread which requested the I/O"), generalized from a
// single requesting thread to the descriptors a network event is for.

// IOReady records that one descriptor became readable and/or writable.
// All selects wake-all delivery: layers that multiplex several
// outstanding requests over one descriptor (the device-file jacket) need
// every waiter to re-check, where sockets wake one waiter and chain.
type IOReady struct {
	FD  FD
	R   bool
	W   bool
	All bool
}

// CompletionOwner is implemented by layers that pool their IOCompletions
// (the socket layer's operation structs). Release hands a consumed
// completion back to whoever minted it.
type CompletionOwner interface {
	RecycleCompletion(c *IOCompletion)
}

// IOCompletion is the SIGIO datum for descriptor-based I/O: the set of
// descriptors the completing event made ready.
type IOCompletion struct {
	Ready []IOReady

	// Owner, when set, is notified by Release once the completion has
	// been demultiplexed to the per-descriptor wait queues and can be
	// reused. Completions with no owner are garbage-collected as before.
	Owner CompletionOwner
}

// Release returns a consumed completion to its owner's pool. The library
// calls it exactly once, after the descriptor sets have been
// demultiplexed; it is a no-op for unowned completions.
func (c *IOCompletion) Release() {
	if c != nil && c.Owner != nil {
		c.Owner.RecycleCompletion(c)
	}
}

// NetApplier is the allocation-free form of a deferred network-state
// transition: a pooled operation struct stored in an interface (no boxing
// allocation) instead of a fresh closure per event. ApplyNet runs at the
// event's due time and returns the readiness to announce, or nil for
// none — in the nil case the applier must have reclaimed itself.
type NetApplier interface {
	ApplyNet() *IOCompletion
}

// netEvent is a deferred network-state transition. Poll runs the applier
// (or the closure form) at the due time and posts SIGIO for any readiness
// it returns. netEvents are pooled: each is recycled as soon as Poll has
// consumed it.
type netEvent struct {
	p       *Process
	apply   func() *IOCompletion
	applier NetApplier
}

// newNetEvent mints a netEvent from the kernel free list.
func (k *Kernel) newNetEvent(p *Process, apply func() *IOCompletion, applier NetApplier) *netEvent {
	if n := len(k.netEvFree); n > 0 {
		ev := k.netEvFree[n-1]
		k.netEvFree[n-1] = nil
		k.netEvFree = k.netEvFree[:n-1]
		*ev = netEvent{p: p, apply: apply, applier: applier}
		return ev
	}
	return &netEvent{p: p, apply: apply, applier: applier}
}

func (k *Kernel) recycleNetEvent(ev *netEvent) {
	*ev = netEvent{}
	k.netEvFree = append(k.netEvFree, ev)
}

// batchCompletion is a kernel-pooled IOCompletion that coalesces the
// readiness of several network events due at the same instant into one
// epoll-style ready list, delivered as a single SIGIO instead of one per
// event. It owns itself: Release hands it back to the kernel free list.
type batchCompletion struct {
	IOCompletion
	k *Kernel
}

// RecycleCompletion implements CompletionOwner for the kernel batch pool.
func (b *batchCompletion) RecycleCompletion(c *IOCompletion) {
	b.Ready = b.Ready[:0]
	b.k.batchFree = append(b.k.batchFree, b)
}

// newBatch mints a batch completion from the kernel free list.
func (k *Kernel) newBatch() *batchCompletion {
	if n := len(k.batchFree); n > 0 {
		b := k.batchFree[n-1]
		k.batchFree[n-1] = nil
		k.batchFree = k.batchFree[:n-1]
		return b
	}
	b := &batchCompletion{k: k}
	b.Owner = b
	return b
}

// NetAfter schedules apply to run after d of virtual time. It models
// latency-only network events — connect handshakes, receive-window
// updates — that do not occupy the interface.
func (k *Kernel) NetAfter(p *Process, d vtime.Duration, apply func() *IOCompletion) vtime.TimerID {
	return k.Clock.ScheduleAfter(d, k.newNetEvent(p, apply, nil))
}

// NetAfterOp is NetAfter for pooled operation structs: no closure is
// allocated, and the netEvent itself comes from the free list.
func (k *Kernel) NetAfterOp(p *Process, d vtime.Duration, op NetApplier) vtime.TimerID {
	return k.Clock.ScheduleAfter(d, k.newNetEvent(p, nil, op))
}

// NetAt schedules apply to run at the absolute virtual instant at. The
// network fabric uses it to land cross-host arrivals computed from the
// sender's departure time plus wire latency; `at` must not be in this
// kernel's past (the fabric's lease rule guarantees it never is).
func (k *Kernel) NetAt(p *Process, at vtime.Time, apply func() *IOCompletion) vtime.TimerID {
	return k.Clock.ScheduleAt(at, k.newNetEvent(p, apply, nil))
}

// NetDevice models a network interface: a fixed per-segment setup cost
// plus a per-byte transfer rate, FIFO-serialized — concurrent segments
// queue behind each other on the one wire, exactly like requests on a
// Device queue on the one disk arm.
type NetDevice struct {
	Name    string
	Setup   vtime.Duration // fixed cost per segment
	PerByte vtime.Duration // transfer cost per byte

	k         *Kernel
	busyUntil vtime.Time

	// Segments and Bytes count traffic carried (harness use).
	Segments int64
	Bytes    int64
}

// NewNetDevice registers a network interface with the kernel.
func (k *Kernel) NewNetDevice(name string, setup, perByte vtime.Duration) *NetDevice {
	if name == "" {
		name = "net"
	}
	if setup < 0 {
		setup = 0
	}
	if perByte < 0 {
		perByte = 0
	}
	return &NetDevice{Name: name, Setup: setup, PerByte: perByte, k: k}
}

// Send carries a segment of the given size across the interface: the
// wire is occupied for setup + bytes·perByte after any queued segments,
// then apply runs (delivering the data into the receiver's buffer) and
// the readiness it returns is posted as SIGIO. extra adds propagation
// delay that does not occupy the interface. It returns the delivery time.
func (nd *NetDevice) Send(p *Process, bytes int, extra vtime.Duration, apply func() *IOCompletion) vtime.Time {
	return nd.send(p, bytes, extra, apply, nil)
}

// SendOp is Send for pooled operation structs (no per-segment closure).
func (nd *NetDevice) SendOp(p *Process, bytes int, extra vtime.Duration, op NetApplier) vtime.Time {
	return nd.send(p, bytes, extra, nil, op)
}

func (nd *NetDevice) send(p *Process, bytes int, extra vtime.Duration, apply func() *IOCompletion, op NetApplier) vtime.Time {
	nd.Segments++
	nd.Bytes += int64(bytes)
	start := nd.k.Clock.Now()
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	done := start.Add(nd.Setup + vtime.Duration(bytes)*nd.PerByte)
	nd.busyUntil = done
	at := done.Add(extra)
	nd.k.Clock.ScheduleAt(at, nd.k.newNetEvent(p, apply, op))
	return at
}

// Occupy charges the interface for transmitting a segment without
// scheduling a local delivery event, and returns the departure time (when
// the last byte leaves the wire). Cross-host sends use it: the serialization
// cost lands on the sender's NIC while the delivery event is scheduled on
// the receiving host's clock by the fabric.
func (nd *NetDevice) Occupy(bytes int) vtime.Time {
	nd.Segments++
	nd.Bytes += int64(bytes)
	start := nd.k.Clock.Now()
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	done := start.Add(nd.Setup + vtime.Duration(bytes)*nd.PerByte)
	nd.busyUntil = done
	return done
}

// BusyUntil reports when the interface's transmit queue drains.
func (nd *NetDevice) BusyUntil() vtime.Time { return nd.busyUntil }
