package net

import (
	"testing"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
)

// pump advances the clock through every pending event, applying each.
func pump(k *unixkern.Kernel) {
	for {
		at, ok := k.NextEventAt()
		if !ok {
			return
		}
		if at > k.Clock.Now() {
			k.Clock.AdvanceTo(at)
		}
		k.Poll()
	}
}

func newStack(t *testing.T, cfg Config) (*unixkern.Kernel, *Stack) {
	t.Helper()
	k := unixkern.New(hw.SPARCstationIPX())
	p := k.NewProcess("nettest")
	return k, NewStack(k, p, cfg)
}

func TestConnectAcceptEcho(t *testing.T) {
	k, st := newStack(t, Config{})
	l, err := st.Listen("srv", 4)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := st.Dial("srv")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.ConnectStatus(); err != ErrWouldBlock {
		t.Fatalf("connect status before handshake: %v", err)
	}
	if _, err := l.TryAccept(); err != ErrWouldBlock {
		t.Fatalf("accept before handshake: %v", err)
	}
	pump(k)
	if err := c.ConnectStatus(); err != nil {
		t.Fatalf("connect status after handshake: %v", err)
	}
	sc, err := l.TryAccept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}

	n, err := c.TryWrite(100)
	if n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if got, err := sc.TryRead(1000); got != 0 || err != ErrWouldBlock {
		t.Fatalf("read before delivery: %d, %v", got, err)
	}
	pump(k)
	if got, err := sc.TryRead(1000); got != 100 || err != nil {
		t.Fatalf("read after delivery: %d, %v", got, err)
	}

	// Echo back and close cleanly: the client drains then sees EOF.
	if n, err := sc.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("echo write: %d, %v", n, err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	pump(k)
	if got, err := c.TryRead(1000); got != 100 || err != nil {
		t.Fatalf("client read echo: %d, %v", got, err)
	}
	if got, err := c.TryRead(1000); got != 0 || err != EOF {
		t.Fatalf("client read at end: %d, %v (want EOF)", got, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if st.Stats().Accepted != 1 || st.Stats().BytesRecvd != 200 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

func TestBacklogFullRefused(t *testing.T) {
	k, st := newStack(t, Config{})
	if _, err := st.Listen("srv", 1); err != nil {
		t.Fatalf("listen: %v", err)
	}
	c1, _ := st.Dial("srv")
	c2, _ := st.Dial("srv")
	pump(k)
	if err := c1.ConnectStatus(); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if err := c2.ConnectStatus(); err != ErrRefused {
		t.Fatalf("second connect with full backlog: %v (want refused)", err)
	}
	if _, err := st.Dial("nobody"); err != nil {
		t.Fatalf("dial: %v", err)
	}
	c3, _ := st.Dial("nobody")
	pump(k)
	if err := c3.ConnectStatus(); err != ErrRefused {
		t.Fatalf("connect to unbound address: %v (want refused)", err)
	}
}

func TestCloseWithUnreadDataResets(t *testing.T) {
	k, st := newStack(t, Config{})
	l, _ := st.Listen("srv", 4)
	c, _ := st.Dial("srv")
	pump(k)
	sc, err := l.TryAccept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	c.TryWrite(500)
	pump(k)
	// The server closes without reading the 500 buffered bytes: RST.
	if err := sc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	pump(k)
	if _, err := c.TryRead(10); err != ErrReset {
		t.Fatalf("read after reset: %v (want reset)", err)
	}
	if _, err := c.TryWrite(10); err != ErrReset {
		t.Fatalf("write after reset: %v (want reset)", err)
	}
	if st.Stats().Resets == 0 {
		t.Fatalf("no reset counted: %+v", st.Stats())
	}
}

func TestWriteAfterPeerCloseResets(t *testing.T) {
	k, st := newStack(t, Config{})
	l, _ := st.Listen("srv", 4)
	c, _ := st.Dial("srv")
	pump(k)
	sc, _ := l.TryAccept()
	if err := sc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	pump(k)
	// The client writes into the closed endpoint: the data is refused
	// with a reset, observed once the RST crosses back.
	if n, err := c.TryWrite(10); n != 10 || err != nil {
		t.Fatalf("first write after peer close: %d, %v", n, err)
	}
	pump(k)
	if _, err := c.TryWrite(10); err != ErrReset {
		t.Fatalf("second write: %v (want reset)", err)
	}

	// A writer that closes behind its segment is not reset: the segment
	// lands at two closed endpoints and is dropped.
	c, _ = st.Dial("srv")
	pump(k)
	sc, _ = l.TryAccept()
	sc.Close()
	pump(k)
	if n, err := c.TryWrite(10); n != 10 || err != nil {
		t.Fatalf("write after peer close: %d, %v", n, err)
	}
	c.Close()
	resets := st.Stats().Resets
	pump(k)
	if got := st.Stats().Resets; got != resets {
		t.Fatalf("segment at two closed endpoints reset %d times, want 0", got-resets)
	}
	if got := c.out().inflight; got != 0 {
		t.Fatalf("%d bytes still in flight", got)
	}
}

func TestBackpressure(t *testing.T) {
	k, st := newStack(t, Config{RecvBuf: 100, SendBuf: 100})
	l, _ := st.Listen("srv", 4)
	c, _ := st.Dial("srv")
	pump(k)
	sc, _ := l.TryAccept()

	if n, err := c.TryWrite(1000); n != 100 || err != nil {
		t.Fatalf("write into empty window: %d, %v (want 100)", n, err)
	}
	if _, err := c.TryWrite(1); err != ErrWouldBlock {
		t.Fatalf("write with zero window: %v (want would-block)", err)
	}
	pump(k)
	// Delivered but unread: window still closed.
	if _, err := c.TryWrite(1); err != ErrWouldBlock {
		t.Fatalf("write with full peer buffer: %v (want would-block)", err)
	}
	if n, err := sc.TryRead(40); n != 40 || err != nil {
		t.Fatalf("read: %d, %v", n, err)
	}
	pump(k) // window update crosses the wire
	if n, err := c.TryWrite(1000); n != 40 || err != nil {
		t.Fatalf("write into reopened window: %d, %v (want 40)", n, err)
	}
}

func TestListenerCloseResetsBacklog(t *testing.T) {
	k, st := newStack(t, Config{})
	l, _ := st.Listen("srv", 4)
	c, _ := st.Dial("srv")
	pump(k)
	if err := l.Close(); err != nil {
		t.Fatalf("listener close: %v", err)
	}
	pump(k)
	if _, err := c.TryRead(1); err != ErrReset {
		t.Fatalf("queued client after listener close: %v (want reset)", err)
	}
	// The address is free again.
	if _, err := st.Listen("srv", 1); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestFDReuseAfterClose(t *testing.T) {
	k, st := newStack(t, Config{})
	l, _ := st.Listen("srv", 4)
	c, _ := st.Dial("srv")
	pump(k)
	sc, _ := l.TryAccept()
	fd := c.FD()
	c.Close()
	sc.Close()
	pump(k)
	c2, _ := st.Dial("srv")
	if c2.FD() != fd {
		t.Fatalf("fd not reused lowest-first: got %d want %d", c2.FD(), fd)
	}
}
