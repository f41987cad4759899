package io

import (
	"testing"
	"unsafe"

	"pthreads/internal/core"
	"pthreads/internal/net"
)

// TestConnSize pins the blocking endpoint at three pointers: its wait
// labels are rendered by the core from the descriptor, only when read,
// and its span state is allocated only with spans on.
func TestConnSize(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 24 {
		t.Errorf("io.Conn is %d bytes, want at most 24", n)
	}
}

// TestConnectionAllocs counts the host allocations of one connection's
// life: Dial, Accept and both Closes, beside a listener that stays up.
// No string is built for it: the dial, connect, accept, read and write
// labels and the socket names (ten strings) are rendered only where a
// trace, a report or a span reads them. The handshake, FIN and RST are
// pooled socket ops, not closures with completions of their own. The
// budget is what remains: the connection object (both endpoints and
// their pipes) and the two blocking endpoints.
func TestConnectionAllocs(t *testing.T) {
	const budget = 3
	s := core.New(core.Config{})
	err := s.Run(func() {
		x := New(s, net.Config{})
		l, err := x.Listen("srv", 4)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		round := func() {
			c, err := x.Dial("srv")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			sc, err := l.Accept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			c.Close()
			sc.Close()
		}
		for i := 0; i < 16; i++ {
			round() // warm the pools
		}
		if n := testing.AllocsPerRun(100, round); n > budget {
			t.Errorf("a connection's life allocates %.1f times, want at most %d", n, budget)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
