package unixkern

import (
	"testing"

	"pthreads/internal/hw"
)

// Batched SIGIO readiness: net events due at the same instant for the
// same process must announce as one coalesced completion, everything
// else must deliver exactly as unbatched.

// stubOp is a reusable NetApplier whose completion is staged in place,
// like the socket layer's pooled operation structs.
type stubOp struct {
	comp  IOCompletion
	ready []IOReady
}

func (a *stubOp) ApplyNet() *IOCompletion {
	a.comp.Ready = a.ready
	return &a.comp
}

// stubNilOp applies to nothing: a predicted coalescing partner that
// evaporates (the socket layer's ops do this when state already moved).
type stubNilOp struct{}

func (stubNilOp) ApplyNet() *IOCompletion { return nil }

func sigioRecorder(p *Process) *[][]IOReady {
	var got [][]IOReady
	p.Sigvec(SIGIO, func(_ Signal, info *SigInfo) {
		c := info.Datum.(*IOCompletion)
		got = append(got, append([]IOReady(nil), c.Ready...))
		c.Release()
	}, 0)
	return &got
}

func TestPollCoalescesSameTickReadiness(t *testing.T) {
	k := New(hw.SPARCstationIPX())
	p := k.NewProcess("p")
	got := sigioRecorder(p)
	a := &stubOp{ready: []IOReady{{FD: 3, R: true}}}
	b := &stubOp{ready: []IOReady{{FD: 4, W: true}}}
	k.NetAfter(p, 1000, a)
	k.NetAfter(p, 1000, b)
	k.Clock.Advance(2000)
	k.Poll()
	if len(*got) != 1 {
		t.Fatalf("same-tick pair delivered %d SIGIOs, want 1 coalesced", len(*got))
	}
	if r := (*got)[0]; len(r) != 2 || r[0] != (IOReady{FD: 3, R: true}) || r[1] != (IOReady{FD: 4, W: true}) {
		t.Fatalf("coalesced ready set = %v", r)
	}
	if len(k.batchFree) != 1 {
		t.Fatalf("released batch not pooled: %d free", len(k.batchFree))
	}

	// A second same-tick pair must reuse the pooled batch, not mint one.
	prev := k.batchFree[0]
	k.NetAfter(p, 1000, a)
	k.NetAfter(p, 1000, b)
	k.Clock.Advance(2000)
	k.Poll()
	if len(*got) != 2 || len((*got)[1]) != 2 {
		t.Fatalf("second pair deliveries %v", *got)
	}
	if len(k.batchFree) != 1 || k.batchFree[0] != prev {
		t.Fatalf("batch completion not recycled through the pool")
	}
}

func TestPollDoesNotCoalesceAcrossProcessesOrTicks(t *testing.T) {
	k := New(hw.SPARCstationIPX())
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	gotA := sigioRecorder(pa)
	gotB := sigioRecorder(pb)
	a := &stubOp{ready: []IOReady{{FD: 3, R: true}}}
	b := &stubOp{ready: []IOReady{{FD: 4, R: true}}}

	// Same tick, different processes: one SIGIO each.
	k.NetAfter(pa, 1000, a)
	k.NetAfter(pb, 1000, b)
	k.Clock.Advance(2000)
	k.Poll()
	if len(*gotA) != 1 || len(*gotB) != 1 {
		t.Fatalf("cross-process deliveries a=%d b=%d, want 1 each", len(*gotA), len(*gotB))
	}
	if len((*gotA)[0]) != 1 || len((*gotB)[0]) != 1 {
		t.Fatalf("cross-process ready sets a=%v b=%v", *gotA, *gotB)
	}

	// Same process, different ticks drained by one Poll: two SIGIOs in
	// event order, nothing held across the tick boundary.
	k.NetAfter(pa, 1000, a)
	k.NetAfter(pa, 1500, b)
	k.Clock.Advance(2000)
	k.Poll()
	if len(*gotA) != 3 {
		t.Fatalf("cross-tick deliveries = %d, want 3 total", len(*gotA))
	}
	if (*gotA)[1][0].FD != 3 || (*gotA)[2][0].FD != 4 {
		t.Fatalf("cross-tick delivery order %v", (*gotA)[1:])
	}
	if len(k.batchFree) != 0 {
		t.Fatalf("singleton deliveries minted %d batches, want 0", len(k.batchFree))
	}
}

func TestPollFlushesWhenPartnerEvaporates(t *testing.T) {
	k := New(hw.SPARCstationIPX())
	p := k.NewProcess("p")
	got := sigioRecorder(p)
	a := &stubOp{ready: []IOReady{{FD: 3, R: true}}}
	k.NetAfter(p, 1000, a)
	k.NetAfter(p, 1000, stubNilOp{})
	k.Clock.Advance(2000)
	k.Poll()
	if len(*got) != 1 || len((*got)[0]) != 1 || (*got)[0][0].FD != 3 {
		t.Fatalf("evaporated partner deliveries %v", *got)
	}
}
