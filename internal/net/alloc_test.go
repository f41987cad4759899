package net

import (
	"testing"
	"unsafe"
)

// Allocation regression tests for the zero-alloc I/O path: the socket
// layer's per-segment bookkeeping (deferred window updates and segment
// deliveries, their completions, the kernel's net events and SigInfos,
// the clock's timer entries) is pooled, so a steady-state echo over an
// established connection must not allocate at all. The listener backlog
// keeps its capacity across fill/drain cycles instead of reallocating.

func TestSteadyStateEchoZeroAlloc(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		k, st := newStack(t, Config{})
		l, err := st.Listen("srv", 4)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		c, err := st.Dial("srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		pump(k)
		echoZeroAlloc(t, l, c, func() { pump(k) })
	})
	// Across hosts every message is the same pooled op, minted on the
	// host whose clock runs it.
	t.Run("cross-host", func(t *testing.T) {
		ka, kb, sa, sb := newPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
		l, err := sb.Listen("srv", 4)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		c, err := sa.Dial("peer:srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		pump2(ka, kb)
		echoZeroAlloc(t, l, c, func() { pump2(ka, kb) })
	})
}

// echoZeroAlloc accepts the far end of c from l and requires a warm echo
// round trip over the pair to allocate nothing; settle runs every
// pending event.
func echoZeroAlloc(t *testing.T, l *Listener, c *Conn, settle func()) {
	t.Helper()
	sc, err := l.TryAccept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	round := func() {
		if n, err := c.TryWrite(64); n != 64 || err != nil {
			t.Fatalf("client write: %d, %v", n, err)
		}
		settle() // delivery + window update
		if n, err := sc.TryRead(64); n != 64 || err != nil {
			t.Fatalf("server read: %d, %v", n, err)
		}
		settle()
		if n, err := sc.TryWrite(64); n != 64 || err != nil {
			t.Fatalf("server write: %d, %v", n, err)
		}
		settle()
		if n, err := c.TryRead(64); n != 64 || err != nil {
			t.Fatalf("client read: %d, %v", n, err)
		}
		settle()
	}
	for i := 0; i < 32; i++ {
		round() // warm the op/event/SigInfo/timer pools
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state echo round allocates %.2f times (want 0)", avg)
	}
}

func TestBacklogCapacityReuse(t *testing.T) {
	k, st := newStack(t, Config{})
	l, err := st.Listen("srv", 4)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	cycle := func() {
		clients := make([]*Conn, 0, 4)
		for i := 0; i < 4; i++ {
			c, err := st.Dial("srv")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			clients = append(clients, c)
		}
		pump(k)
		for _, c := range clients {
			sc, err := l.TryAccept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			sc.Close()
			pump(k)
			c.Close()
			pump(k)
		}
	}

	cycle()
	base := cap(l.backlog)
	if base == 0 {
		t.Fatal("backlog never grew capacity")
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := cap(l.backlog); got != base {
		t.Fatalf("backlog capacity churned: %d after warmup, %d after 8 cycles", base, got)
	}
	if len(l.backlog) != 0 {
		t.Fatalf("backlog not drained: %d queued", len(l.backlog))
	}
	// The shift-out path must nil the vacated slots so drained endpoints
	// are not pinned by the retained capacity.
	for i, c := range l.backlog[:cap(l.backlog)] {
		if c != nil {
			t.Fatalf("drained backlog slot %d still pins a connection", i)
		}
	}
}

// TestConnSize pins a connection, not an endpoint: the two endpoints,
// each with its inbound pipe inline, are one object of at most 128 B (an
// endpoint keeps the dial address and its descriptor, not a rendered
// name). A connection's whole life at the socket layer — Dial, the
// handshake, the accept, both Closes and the FIN — allocates that object
// and nothing else: the handshake, FIN and RST are pooled ops.
func TestConnSize(t *testing.T) {
	if n := unsafe.Sizeof(connection{}); n > 128 {
		t.Errorf("a connection is %d bytes, want at most 128", n)
	}
	k, st := newStack(t, Config{})
	l, err := st.Listen("srv", 4)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	round := func() {
		c, err := st.Dial("srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		pump(k)
		sc, err := l.TryAccept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		c.Close()
		sc.Close()
		pump(k)
	}
	for i := 0; i < 16; i++ {
		round() // warm the op, event and SigInfo pools and the fd table
	}
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Errorf("a connection's life allocates %.1f times, want 1", n)
	}
}

// TestRemoteConnAllocs holds a cross-host connection's life — Dial, the
// SYN and its verdict across the wires, the accept, both Closes and the
// FIN — to the allocations of a local one (TestConnSize): the
// endpoints' cross-host state rides in the connection object.
func TestRemoteConnAllocs(t *testing.T) {
	ka, kb, sa, sb := newPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	l, err := sb.Listen("srv", 4)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	round := func() {
		c, err := sa.Dial("peer:srv")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		pump2(ka, kb)
		sc, err := l.TryAccept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		c.Close()
		sc.Close()
		pump2(ka, kb)
	}
	for i := 0; i < 16; i++ {
		round() // warm the op, event and SigInfo pools and the fd tables
	}
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Errorf("a cross-host connection's life allocates %.1f times, want 1 as on one host", n)
	}
}
