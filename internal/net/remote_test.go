package net

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Cross-host stack tests: two kernels side by side joined by scripted
// wires, driven in virtual lockstep. These pin the fault semantics the
// fabric relies on at exact virtual instants: refusal under backlog
// overflow, a SYN swallowed by a partition (timeout territory, never
// ECONNREFUSED), and an RST held by a partition window landing at the
// healing instant — the ECONNRESET-vs-timeout ordering is a pure
// function of the window, not of the schedule.

// testWire mirrors the fabric wire: flat latency, partition windows
// that hold traffic until they heal (or swallow it when unhealed), and
// a FIFO floor.
type testWindow struct{ from, to vtime.Time }

type testWire struct {
	delay vtime.Duration
	parts []testWindow
	last  vtime.Time
}

func (w *testWire) Arrival(dep vtime.Time, bytes int, data bool) (vtime.Time, bool) {
	at := dep.Add(w.delay)
	for _, p := range w.parts {
		if at >= p.from && at < p.to {
			if p.to == vtime.Infinity {
				return 0, false
			}
			at = p.to
		}
	}
	if at < w.last {
		at = w.last
	}
	w.last = at
	return at, true
}

// testRouter resolves "peer:<addr>" to the one remote stack.
type testRouter struct {
	peer      *Stack
	out, back Wire
	flows     uint64
}

func (r *testRouter) Route(addr string) (*Stack, string, Wire, Wire, uint64, bool) {
	host, rest, ok := strings.Cut(addr, ":")
	if !ok || host != "peer" {
		return nil, "", nil, nil, 0, false
	}
	r.flows++
	return r.peer, rest, r.out, r.back, r.flows, true
}

// newPair builds two hosts' kernels and stacks wired A→B / B→A.
func newPair(t *testing.T, out, back Wire) (ka, kb *unixkern.Kernel, sa, sb *Stack) {
	t.Helper()
	ka = unixkern.New(hw.SPARCstationIPX())
	sa = NewStack(ka, ka.NewProcess("hostA"), Config{})
	kb = unixkern.New(hw.SPARCstationIPX())
	sb = NewStack(kb, kb.NewProcess("hostB"), Config{})
	sa.SetRouter(&testRouter{peer: sb, out: out, back: back})
	return
}

// pump2Until processes every pending event across both kernels in
// global virtual-time order, up to and including limit.
func pump2Until(ka, kb *unixkern.Kernel, limit vtime.Time) {
	for {
		var best *unixkern.Kernel
		var bestAt vtime.Time
		for _, k := range []*unixkern.Kernel{ka, kb} {
			if at, ok := k.NextEventAt(); ok && (best == nil || at < bestAt) {
				best, bestAt = k, at
			}
		}
		if best == nil || bestAt > limit {
			return
		}
		if bestAt > best.Clock.Now() {
			best.Clock.AdvanceTo(bestAt)
		}
		best.Poll()
	}
}

func pump2(ka, kb *unixkern.Kernel) { pump2Until(ka, kb, vtime.Infinity) }

const wireDelay = 100 * vtime.Microsecond

func TestRemoteBacklogOverflowRefused(t *testing.T) {
	ka, kb, sa, sb := newPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c1, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	c2, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	pump2(ka, kb)

	// FIFO on the wire: the first SYN takes the single backlog slot and
	// establishes; the second finds the backlog full and bounces.
	if err := c1.ConnectStatus(); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if err := c2.ConnectStatus(); err != ErrRefused {
		t.Fatalf("overflow connect: %v, want ErrRefused", err)
	}
	if _, err := c2.TryWrite(10); err != ErrRefused {
		t.Fatalf("write on refused conn: %v, want ErrRefused", err)
	}
	if got := sb.Stats().Refused; got != 1 {
		t.Fatalf("server refused count = %d, want 1", got)
	}

	// Draining the backlog reopens it: the next dial establishes.
	if _, err := l.TryAccept(); err != nil {
		t.Fatalf("accept: %v", err)
	}
	c3, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial 3: %v", err)
	}
	pump2(ka, kb)
	if err := c3.ConnectStatus(); err != nil {
		t.Fatalf("post-drain connect: %v", err)
	}
}

func TestConnectDuringPartitionIsTimeoutNotRefusal(t *testing.T) {
	// Forward path unhealed: the SYN vanishes. Nothing ever reaches the
	// server (no refusal is even generated) and the client never leaves
	// ErrWouldBlock — at the jacket layer that is ETIMEDOUT, never
	// ECONNREFUSED.
	ka, kb, sa, sb := newPair(t,
		&testWire{delay: wireDelay, parts: []testWindow{{0, vtime.Infinity}}},
		&testWire{delay: wireDelay})
	c, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	if err := c.ConnectStatus(); err != ErrWouldBlock {
		t.Fatalf("connect through dead link: %v, want ErrWouldBlock", err)
	}
	if got := sb.Stats().Refused; got != 0 {
		t.Fatalf("server refused count = %d, want 0 (SYN never arrived)", got)
	}

	// Reverse path unhealed: the SYN arrives, the server refuses (no
	// listener), but the RST is swallowed on the way back. The refusal
	// is real at the server and invisible at the client: still timeout
	// territory, not ECONNREFUSED.
	ka, kb, sa, sb = newPair(t,
		&testWire{delay: wireDelay},
		&testWire{delay: wireDelay, parts: []testWindow{{0, vtime.Infinity}}})
	c, err = sa.Dial("peer:nope")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	if got := sb.Stats().Refused; got != 1 {
		t.Fatalf("server refused count = %d, want 1", got)
	}
	if err := c.ConnectStatus(); err != ErrWouldBlock {
		t.Fatalf("refused behind partition: %v, want ErrWouldBlock", err)
	}
}

func TestRefusalHeldByPartitionLandsAtHeal(t *testing.T) {
	// The RST for a refused connect departs inside a reverse-path
	// partition window and is held to the healing instant: one virtual
	// nanosecond before the heal the client still sees ErrWouldBlock;
	// pumping past it flips the status to ErrRefused exactly at heal.
	heal := vtime.Time(2 * vtime.Millisecond)
	ka, kb, sa, _ := newPair(t,
		&testWire{delay: wireDelay},
		&testWire{delay: wireDelay, parts: []testWindow{{0, heal}}})
	c, err := sa.Dial("peer:nope")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2Until(ka, kb, heal-1)
	if err := c.ConnectStatus(); err != ErrWouldBlock {
		t.Fatalf("before heal: %v, want ErrWouldBlock", err)
	}
	pump2(ka, kb)
	if err := c.ConnectStatus(); err != ErrRefused {
		t.Fatalf("after heal: %v, want ErrRefused", err)
	}
	if now := ka.Clock.Now(); now != heal {
		t.Fatalf("refusal landed at %v, want exactly the healing instant %v", now, heal)
	}
}

func TestResetHeldByPartitionOrdersAfterHeal(t *testing.T) {
	// An established connection: the server closes with unread data, so
	// TCP mandates RST — but the reverse path is partitioned, holding
	// the RST to the healing instant. The client reads ErrWouldBlock
	// (not ErrReset) at any instant before the heal, and ErrReset at it:
	// the ECONNRESET-vs-timeout ordering is pinned by the window alone.
	start := vtime.Time(1 * vtime.Millisecond)
	heal := vtime.Time(5 * vtime.Millisecond)
	ka, kb, sa, sb := newPair(t,
		&testWire{delay: wireDelay},
		&testWire{delay: wireDelay, parts: []testWindow{{start, heal}}})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	if err := c.ConnectStatus(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	sc, err := l.TryAccept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	pump2(ka, kb)

	// Park both hosts inside the partition window, then close with the
	// 100 bytes still unread: the RST departs now and is held to heal.
	ka.Clock.AdvanceTo(start)
	kb.Clock.AdvanceTo(start)
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if at, ok := ka.NextEventAt(); !ok || at != heal {
		t.Fatalf("held RST scheduled at %v (ok=%v), want exactly the healing instant %v", at, ok, heal)
	}
	pump2Until(ka, kb, heal-1)
	if _, err := c.TryRead(10); err != ErrWouldBlock {
		t.Fatalf("before heal: %v, want ErrWouldBlock", err)
	}
	pump2Until(ka, kb, heal)
	if _, err := c.TryRead(10); err != ErrReset {
		t.Fatalf("at heal: %v, want ErrReset", err)
	}
	if got := sa.Stats().Resets; got != 1 {
		t.Fatalf("client reset count = %d, want 1", got)
	}
}

// Edge cases of the cross-host paths. An endpoint's state changes only
// when a message lands on its own host, so a close, a reset or a refusal
// that races a message in flight is settled where the message lands.
// Each test records the SIGIO completions both hosts see (newRecPair) and
// pins them, with the instants, errors and counters, exactly.

// newRecPair is newPair with every SIGIO completion each host receives
// logged, one line per descriptor ("A@1.2ms fd3 R W"). Its cost model
// prices signal delivery at zero, so a line's instant is the instant the
// message landed.
func newRecPair(t *testing.T, out, back Wire) (ka, kb *unixkern.Kernel, sa, sb *Stack, log *[]string) {
	t.Helper()
	m := hw.SPARCstationIPX()
	m.SignalDeliverNS, m.SigreturnNS = 0, 0
	log = new([]string)
	host := func(name string) (*unixkern.Kernel, *Stack) {
		k := unixkern.New(m)
		p := k.NewProcess(name)
		p.Sigvec(unixkern.SIGIO, func(_ unixkern.Signal, info *unixkern.SigInfo) {
			comp := info.Datum.(*unixkern.IOCompletion)
			for _, r := range comp.Ready {
				*log = append(*log, readyLine(name, k.Clock.Now(), r))
			}
			comp.Release()
		}, 0)
		return k, NewStack(k, p, Config{})
	}
	ka, sa = host("A")
	kb, sb = host("B")
	sa.SetRouter(&testRouter{peer: sb, out: out, back: back})
	return
}

func readyLine(host string, at vtime.Time, r unixkern.IOReady) string {
	s := host + "@" + at.String() + " fd" + strconv.Itoa(int(r.FD))
	if r.R {
		s += " R"
	}
	if r.W {
		s += " W"
	}
	return s
}

func wantLog(t *testing.T, log *[]string, want ...string) {
	t.Helper()
	if !slices.Equal(*log, want) {
		t.Fatalf("SIGIO completions:\n  got  %q\n  want %q", *log, want)
	}
}

// establishRec connects A to B's listener "echo" over flat wires and
// accepts the far end, then clears the log.
func establishRec(t *testing.T) (ka, kb *unixkern.Kernel, sa, sb *Stack, c, sc *Conn, log *[]string) {
	t.Helper()
	ka, kb, sa, sb, log = newRecPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if c, err = sa.Dial("peer:echo"); err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	if sc, err = l.TryAccept(); err != nil {
		t.Fatalf("accept: %v", err)
	}
	*log = (*log)[:0]
	return
}

func TestRemoteConnectAbandonedBeforeSYN(t *testing.T) {
	// The client closes before its SYN lands: the SYN still crosses, but
	// the accepting host drops it — no backlog entry, no refusal, and no
	// reply over the wire.
	ka, kb, sa, sb, log := newRecPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	synAt := sa.Device().BusyUntil().Add(wireDelay)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	pump2(ka, kb)
	if now := kb.Clock.Now(); now != synAt {
		t.Fatalf("SYN landed at %v, want %v", now, synAt)
	}
	if n := l.Pending(); n != 0 {
		t.Fatalf("abandoned connect left %d backlog entries", n)
	}
	if got := sb.Stats().Refused; got != 0 {
		t.Fatalf("refused count = %d, want 0", got)
	}
	if got := sb.Device().Segments; got != 0 {
		t.Fatalf("accepting host sent %d messages, want 0", got)
	}
	if err := c.ConnectStatus(); err != ErrClosed {
		t.Fatalf("status: %v, want ErrClosed", err)
	}
	wantLog(t, log)
}

func TestRemoteReplyAtClosedClient(t *testing.T) {
	// The SYN is judged when it lands; the client closes before the
	// verdict crosses back. A refusal is counted on the accepting stack
	// and an acceptance queues the far end, but the closed client
	// hears neither.
	for _, tc := range []struct {
		addr             string
		refused, pending int
	}{
		{"peer:nope", 1, 0},
		{"peer:echo", 0, 1},
	} {
		ka, kb, sa, sb, log := newRecPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
		l, err := sb.Listen("echo", 1)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		c, err := sa.Dial(tc.addr)
		if err != nil {
			t.Fatalf("dial %s: %v", tc.addr, err)
		}
		synAt := sa.Device().BusyUntil().Add(wireDelay)
		pump2Until(ka, kb, synAt)
		replyAt := sb.Device().BusyUntil().Add(wireDelay)
		if replyAt != synAt.Add(sb.Config().WireSetup+wireDelay) {
			t.Fatalf("%s: reply lands at %v, want SYN + setup + wire", tc.addr, replyAt)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.addr, err)
		}
		pump2(ka, kb)
		if now := ka.Clock.Now(); now != replyAt {
			t.Fatalf("%s: reply landed at %v, want %v", tc.addr, now, replyAt)
		}
		if got := sb.Stats().Refused; got != int64(tc.refused) {
			t.Fatalf("%s: refused count = %d, want %d", tc.addr, got, tc.refused)
		}
		if got := l.Pending(); got != tc.pending {
			t.Fatalf("%s: backlog holds %d, want %d", tc.addr, got, tc.pending)
		}
		if err := c.ConnectStatus(); err != ErrClosed {
			t.Fatalf("%s: status: %v, want ErrClosed", tc.addr, err)
		}
		if tc.pending == 0 {
			wantLog(t, log)
		} else {
			wantLog(t, log, readyLine("B", synAt, unixkern.IOReady{FD: l.FD(), R: true}))
		}
	}
}

func TestRemoteDataAtClosedEndpointResetsWhenRSTLands(t *testing.T) {
	// The far end has closed cleanly; the client reads EOF and writes
	// anyway. The segment lands at the closed endpoint, which answers
	// with an RST over the reverse wire: the writer is reset when that
	// RST lands, not when its data did.
	ka, kb, sa, sb, c, sc, log := establishRec(t)
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	finAt := sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if _, err := c.TryRead(10); err != EOF {
		t.Fatalf("read after FIN: %v, want EOF", err)
	}
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write toward closed end: %d, %v", n, err)
	}
	dataAt := sa.Device().BusyUntil().Add(wireDelay)
	rstAt := dataAt.Add(sb.Config().WireSetup + wireDelay)
	pump2Until(ka, kb, dataAt)
	if _, err := c.TryRead(10); err != EOF {
		t.Fatalf("read once the data landed: %v, want EOF (the RST is still crossing)", err)
	}
	pump2Until(ka, kb, rstAt-1)
	if c.in.reset {
		t.Fatal("writer reset before the RST landed")
	}
	pump2Until(ka, kb, rstAt)
	if _, err := c.TryRead(10); err != ErrReset {
		t.Fatalf("read once the RST landed: %v, want ErrReset", err)
	}
	if _, err := c.TryWrite(10); err != ErrReset {
		t.Fatalf("write once the RST landed: %v, want ErrReset", err)
	}
	if a, b := sa.Stats().Resets, sb.Stats().Resets; a != 1 || b != 0 {
		t.Fatalf("resets = %d/%d, want 1/0", a, b)
	}
	wantLog(t, log,
		readyLine("A", finAt, unixkern.IOReady{FD: c.FD(), R: true}),
		readyLine("A", rstAt, unixkern.IOReady{FD: c.FD(), R: true, W: true}))
}

func TestRemoteDataOnResetDirectionDropped(t *testing.T) {
	// The client's segment is in flight when the far end closes with it
	// unread. The far end's RST reaches the client before the segment
	// reaches the far end, so the segment lands on a reset direction: it
	// is dropped, and no second RST crosses back.
	ka, kb, sa, sb, c, sc, log := establishRec(t)
	t1 := ka.Clock.Now()
	if now := kb.Clock.Now(); now > t1 {
		t1 = now
	}
	ka.Clock.AdvanceTo(t1)
	kb.Clock.AdvanceTo(t1)
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	dataAt := sa.Device().BusyUntil().Add(wireDelay)
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	rstAt := sb.Device().BusyUntil().Add(wireDelay)
	if rstAt >= dataAt {
		t.Fatalf("RST lands at %v, not before the data at %v", rstAt, dataAt)
	}
	segs := sb.Device().Segments
	pump2(ka, kb)
	if now := kb.Clock.Now(); now != dataAt {
		t.Fatalf("data landed at %v, want %v", now, dataAt)
	}
	if got := sb.Device().Segments; got != segs {
		t.Fatalf("dropped segment sent %d more messages, want 0", got-segs)
	}
	if sc.in.inflight != 0 || sc.in.buffered != 0 {
		t.Fatalf("far end holds %d in flight, %d buffered; want 0, 0", sc.in.inflight, sc.in.buffered)
	}
	if a, b := sa.Stats().Resets, sb.Stats().Resets; a != 1 || b != 0 {
		t.Fatalf("resets = %d/%d, want 1/0", a, b)
	}
	wantLog(t, log, readyLine("A", rstAt, unixkern.IOReady{FD: c.FD(), R: true, W: true}))
}

func TestRemoteFinAndWindowAtClosedEndpoint(t *testing.T) {
	// Both ends close at once: each FIN lands at a closed endpoint and
	// announces nothing.
	ka, kb, sa, sb, c, sc, log := establishRec(t)
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	finAtB := sa.Device().BusyUntil().Add(wireDelay)
	finAtA := sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if ka.Clock.Now() != finAtA || kb.Clock.Now() != finAtB {
		t.Fatalf("FINs landed at %v/%v, want %v/%v", ka.Clock.Now(), kb.Clock.Now(), finAtA, finAtB)
	}
	if !c.in.finDelivered || !sc.in.finDelivered {
		t.Fatal("a FIN that landed at a closed endpoint was not delivered")
	}
	wantLog(t, log)

	// The reader frees window space and the writer closes before the
	// window update lands: the update announces nothing; the writer's
	// FIN then reaches the reader as EOF.
	ka, kb, sa, sb, c, sc, log = establishRec(t)
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	dataAt := sa.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if n, err := sc.TryRead(100); n != 100 || err != nil {
		t.Fatalf("read: %d, %v", n, err)
	}
	winAt := sb.Device().BusyUntil().Add(wireDelay)
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	finAt := sa.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if now := ka.Clock.Now(); now != winAt {
		t.Fatalf("window update landed at %v, want %v", now, winAt)
	}
	if _, err := sc.TryRead(10); err != EOF {
		t.Fatalf("read after FIN: %v, want EOF", err)
	}
	wantLog(t, log,
		readyLine("B", dataAt, unixkern.IOReady{FD: sc.FD(), R: true}),
		readyLine("B", finAt, unixkern.IOReady{FD: sc.FD(), R: true}))
}

func TestRemoteCloseAfterResetSendsNothing(t *testing.T) {
	// The far end closes with data unread: its RST resets the client.
	// The client's own Close then has nothing to announce.
	ka, kb, sa, sb, c, sc, log := establishRec(t)
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	pump2(ka, kb)
	if err := sc.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	rstAt := sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	segs := sa.Device().Segments
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if got := sa.Device().Segments; got != segs {
		t.Fatalf("close of a reset endpoint sent %d messages, want 0", got-segs)
	}
	if _, ok := kb.NextEventAt(); ok {
		t.Fatal("close of a reset endpoint scheduled an event on the far host")
	}
	if a, b := sa.Stats().Resets, sb.Stats().Resets; a != 1 || b != 0 {
		t.Fatalf("resets = %d/%d, want 1/0", a, b)
	}
	wantLog(t, log,
		readyLine("B", sa.Device().BusyUntil().Add(wireDelay), unixkern.IOReady{FD: sc.FD(), R: true}),
		readyLine("A", rstAt, unixkern.IOReady{FD: c.FD(), R: true, W: true}))
}

func TestRemoteListenerCloseAtResetClient(t *testing.T) {
	// Listener.Close resets its queued, never-accepted endpoints; across
	// hosts the RST crosses the wire and is dropped at a client that is
	// already reset. No message sequence resets a client whose far end
	// is still queued, so the test puts it there directly.
	ka, kb, sa, sb, log := newRecPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	*log = (*log)[:0]
	c.markReset()
	if err := l.Close(); err != nil {
		t.Fatalf("listener close: %v", err)
	}
	rstAt := sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if now := ka.Clock.Now(); now != rstAt {
		t.Fatalf("RST landed at %v, want %v", now, rstAt)
	}
	if a, b := sa.Stats().Resets, sb.Stats().Resets; a != 1 || b != 0 {
		t.Fatalf("resets = %d/%d, want 1/0", a, b)
	}
	wantLog(t, log)

	// The same close at a live client resets it when the RST lands.
	ka, kb, sa, sb, log = newRecPair(t, &testWire{delay: wireDelay}, &testWire{delay: wireDelay})
	if l, err = sb.Listen("echo", 1); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if c, err = sa.Dial("peer:echo"); err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	*log = (*log)[:0]
	if err := l.Close(); err != nil {
		t.Fatalf("listener close: %v", err)
	}
	rstAt = sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if _, err := c.TryRead(10); err != ErrReset {
		t.Fatalf("read at an aborted client: %v, want ErrReset", err)
	}
	wantLog(t, log, readyLine("A", rstAt, unixkern.IOReady{FD: c.FD(), R: true, W: true}))
}

func TestRemoteWindowUpdateAndSwallowedSegment(t *testing.T) {
	// A read frees window space: the update crosses back and makes the
	// writer writable when it lands. Both ends count the stream's bytes.
	out := &testWire{delay: wireDelay}
	ka, kb, sa, sb, log := newRecPair(t, out, &testWire{delay: wireDelay})
	l, err := sb.Listen("echo", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := sa.Dial("peer:echo")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump2(ka, kb)
	sc, err := l.TryAccept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	*log = (*log)[:0]
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	dataAt := sa.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if n, err := sc.TryRead(100); n != 100 || err != nil {
		t.Fatalf("read: %d, %v", n, err)
	}
	winAt := sb.Device().BusyUntil().Add(wireDelay)
	pump2(ka, kb)
	if got, sent := sc.RcvdBytes(), c.SentBytes(); got != 100 || sent != 100 {
		t.Fatalf("stream bytes read/sent = %d/%d, want 100/100", got, sent)
	}

	// Then the forward path dies for good: the next segment is swallowed,
	// its bytes never drain, and the far end never hears of it.
	out.parts = []testWindow{{0, vtime.Infinity}}
	if n, err := c.TryWrite(100); n != 100 || err != nil {
		t.Fatalf("write into a dead link: %d, %v", n, err)
	}
	pump2(ka, kb)
	if got := c.out().inflight; got != 100 {
		t.Fatalf("swallowed segment: %d bytes in flight, want 100", got)
	}
	if got := sc.in.buffered; got != 0 {
		t.Fatalf("swallowed segment: far end buffered %d, want 0", got)
	}
	wantLog(t, log,
		readyLine("B", dataAt, unixkern.IOReady{FD: sc.FD(), R: true}),
		readyLine("A", winAt, unixkern.IOReady{FD: c.FD(), W: true}))
}
