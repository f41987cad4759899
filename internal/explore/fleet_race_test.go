package explore

import (
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// capTracer captures trace events verbatim.
type capTracer struct{ evs []core.TraceEvent }

func (c *capTracer) Event(ev core.TraceEvent) { c.evs = append(c.evs, ev) }

// harvest runs a throwaway system to obtain two real threads (main and
// a child) and a mutex factory: the trace event fields are concrete
// types. The checker interns threads by (host, id), so one pointer can
// stand for a thread on any number of hosts.
func harvest(t *testing.T) (a, b *core.Thread, mutex func(name string) *core.Mutex) {
	t.Helper()
	cap := &capTracer{}
	sys := core.New(core.Config{Tracer: cap})
	if err := sys.Run(func() {
		th, _ := sys.Create(core.DefaultAttr(), func(any) any { return nil }, nil)
		sys.Join(th)
	}); err != nil {
		t.Fatalf("harvest run: %v", err)
	}
	for _, ev := range cap.evs {
		if ev.Kind == core.EvFork {
			return ev.Thread, ev.Peer, func(name string) *core.Mutex {
				return sys.MustMutex(core.MutexAttr{Name: name})
			}
		}
	}
	t.Fatal("no fork in harvest trace")
	return nil, nil, nil
}

// Synthetic fleet traces: host A's thread and host B's thread are
// distinct threads even where they share a pointer.

func TestFleetMessageEdgeOrders(t *testing.T) {
	th, _, _ := harvest(t)
	send := []core.TraceEvent{
		{At: 10, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "write"},
		{At: 20, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "xmit", Detail: "8"},
	}
	recvThenRead := []core.TraceEvent{
		{At: 100, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "recv", Detail: "8"},
		{At: 110, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "read"},
	}
	if races := CheckRaces(HostTrace{Name: "A", Events: send}, HostTrace{Name: "B", Events: recvThenRead}); len(races) != 0 {
		t.Fatalf("message edge did not order the accesses: %v", races)
	}

	readThenRecv := []core.TraceEvent{
		{At: 50, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "read"},
		{At: 100, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "recv", Detail: "8"},
	}
	races := CheckRaces(HostTrace{Name: "A", Events: send}, HostTrace{Name: "B", Events: readThenRecv})
	if len(races) != 1 || races[0].Loc != "x" {
		t.Fatalf("unordered cross-host accesses not flagged: %v", races)
	}
	s := races[0].String()
	if !strings.Contains(s, "A/") || !strings.Contains(s, "B/") {
		t.Fatalf("race names are not host-qualified: %s", s)
	}
}

func TestFleetPartialReceiptEdge(t *testing.T) {
	th, _, _ := harvest(t)
	// The sender writes x between its first and second segment; a reader
	// that consumed only the first segment is not ordered after the
	// write, a reader that consumed both is.
	send := []core.TraceEvent{
		{At: 10, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "xmit", Detail: "8"},
		{At: 15, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "write"},
		{At: 20, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "xmit", Detail: "16"},
	}
	readHalf := []core.TraceEvent{
		{At: 100, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "recv", Detail: "8"},
		{At: 110, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "read"},
	}
	if races := CheckRaces(HostTrace{Name: "A", Events: send}, HostTrace{Name: "B", Events: readHalf}); len(races) != 1 {
		t.Fatalf("partial receipt should not order the later write: %v", races)
	}
	readAll := []core.TraceEvent{
		{At: 100, Kind: core.EvNet, Thread: th, Obj: "f1>", Arg: "recv", Detail: "16"},
		{At: 110, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: "read"},
	}
	if races := CheckRaces(HostTrace{Name: "A", Events: send}, HostTrace{Name: "B", Events: readAll}); len(races) != 0 {
		t.Fatalf("full receipt should order the write before the read: %v", races)
	}
}

func TestFleetMutexesAreHostLocal(t *testing.T) {
	th, peer, mutex := harvest(t)
	// x guarded by a lock section on m: one access, then the release.
	mk := func(th *core.Thread, m *core.Mutex, at vtime.Time, arg string) []core.TraceEvent {
		return []core.TraceEvent{
			{At: at, Kind: core.EvMutex, Op: core.OpLock, Thread: th, Mutex: m, Obj: m.Name(), Arg: "lock"},
			{At: at + 1, Kind: core.EvAccess, Thread: th, Obj: "x", Arg: arg},
			{At: at + 2, Kind: core.EvMutex, Op: core.OpUnlock, Thread: th, Mutex: m, Obj: m.Name(), Arg: "unlock"},
		}
	}
	// Both hosts guard x with "their" mutex m. Same name, different
	// machines: no common lock exists, so the accesses race and the
	// lockset check must agree.
	mA, mB := mutex("m"), mutex("m")
	races := CheckRaces(HostTrace{Name: "A", Events: mk(th, mA, 10, "write")}, HostTrace{Name: "B", Events: mk(th, mB, 100, "read")})
	if len(races) != 1 {
		t.Fatalf("same-named mutexes on different hosts must not order accesses: %v", races)
	}
	if !races[0].LocksetEmpty {
		t.Fatalf("per-host locksets should be disjoint: %+v", races[0])
	}

	// One host, two threads, one mutex: the release orders the write
	// before the read.
	one := append(mk(th, mA, 10, "write"), mk(peer, mA, 100, "read")...)
	if races := CheckRaces(HostTrace{Name: "A", Events: one}); len(races) != 0 {
		t.Fatalf("common mutex on one host should order accesses: %v", races)
	}
}
