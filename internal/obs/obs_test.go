package obs

import (
	"testing"

	"pthreads/internal/vtime"
)

// Ids are a pure function of (host, instant, sequence): two recorders
// replaying the same mint calls agree byte for byte, different hosts
// or instants never collide, and 0 never escapes the mixer.
func TestMintIDDeterministic(t *testing.T) {
	a, b := NewRecorder(3), NewRecorder(3)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		at := vtime.Time(i) * 17
		ida, idb := a.MintID(at), b.MintID(at)
		if ida != idb {
			t.Fatalf("mint %d: recorders disagree: %016x vs %016x", i, ida, idb)
		}
		if ida == 0 {
			t.Fatalf("mint %d: id 0 escaped (the no-span sentinel)", i)
		}
		if seen[ida] {
			t.Fatalf("mint %d: id %016x repeated", i, ida)
		}
		seen[ida] = true
	}
	other := NewRecorder(4)
	if id := other.MintID(17); seen[id] {
		t.Fatalf("host 4's first id %016x collides with host 3's stream", id)
	}
}

// A span opened with no thread context roots its own trace; a child
// opened on the same thread nests under it; Close stamps the end.
func TestOpenRootsAndNests(t *testing.T) {
	r := NewRecorder(0)
	root := r.Open(100, 1, "w", KDial, "dial srv")
	rs := r.Span(root)
	if rs.Trace != rs.ID || rs.Parent != 0 {
		t.Fatalf("first span must root its trace: %+v", rs)
	}
	r.threads[1] = threadCtx{trace: rs.Trace, span: rs.ID}
	child := r.Open(150, 1, "w", KWrite, "write")
	cs := r.Span(child)
	if cs.Trace != rs.Trace || cs.Parent != rs.ID {
		t.Fatalf("child must nest under the thread context: %+v", cs)
	}
	r.Close(child, 200, "")
	r.Close(root, 300, "")
	for _, sp := range r.Spans() {
		if !sp.Done {
			t.Fatalf("span %q not closed", sp.Name)
		}
	}
	if got := r.Span(root); int64(got.End) != 300 {
		t.Fatalf("root closed at %d, want 300", int64(got.End))
	}
}

// Deliver posts an inbound context per flow; the next span opened on
// that flow adopts it exactly once — trace, parent, and message link.
func TestAdoptConsumesDelivery(t *testing.T) {
	r := NewRecorder(1)
	r.Deliver(7, 0xaaa, 0xbbb, 0xccc)
	ref := r.Open(100, 2, "srv", KAccept, "accept")
	if !r.Adopt(ref, 7) {
		t.Fatal("first adopt on the flow must succeed")
	}
	sp := r.Span(ref)
	if sp.Trace != 0xaaa || sp.Parent != 0xbbb || sp.LinkMsg != 0xccc {
		t.Fatalf("adopt did not take the delivered context: %+v", sp)
	}
	ref2 := r.Open(200, 2, "srv", KRead, "read")
	if r.Adopt(ref2, 7) {
		t.Fatal("second adopt must fail: the delivery was consumed")
	}
	if r.Adopt(ref2, 8) {
		t.Fatal("adopt on a flow with no delivery must fail")
	}
}

// CloseDangling force-closes whatever teardown finds still open, with
// the "unfinished" annotation the validator and viewer rely on.
func TestCloseDangling(t *testing.T) {
	r := NewRecorder(0)
	done := r.Open(10, 1, "w", KRead, "read")
	r.Close(done, 20, "")
	_ = r.Open(30, 1, "w", KRead, "read again")
	r.CloseDangling(99)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Err != "" || int64(spans[0].End) != 20 {
		t.Fatalf("closed span rewritten by CloseDangling: %+v", spans[0])
	}
	if !spans[1].Done || spans[1].Err != "unfinished" || int64(spans[1].End) != 99 {
		t.Fatalf("dangling span not force-closed at teardown: %+v", spans[1])
	}
}
