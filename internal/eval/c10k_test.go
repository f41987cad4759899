package eval

import (
	"math"
	"testing"
)

// TestC10KTimerWheelCountsFlat is the exact half of the timer rung's O(1)
// claim. Host ns/op on a shared machine is a noisy tripwire; the wheel's
// own work per op is deterministic, so it is gated at 1%: region scans,
// entries re-filed, coarse-slot entries read and polls answered by the
// bound must not grow as the sleeping population grows from 8 to 1,000.
// They are not bit-identical across rungs, because each rung opens its
// window at a different virtual instant. A walk over the sleepers' slot
// on any path of the op would make the slot reads grow with n.
func TestC10KTimerWheelCountsFlat(t *testing.T) {
	var base C10KPoint
	for _, n := range []int{8, 100, 1000} {
		pt, err := c10kTimer(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%5d threads: scans %.4f refiled %.4f slot reads %.4f bound polls %.4f per op",
			n, pt.WheelScansOp, pt.WheelRefiledOp, pt.WheelSlotOp, pt.WheelBoundOp)
		if n == 8 {
			base = pt
			if base.WheelScansOp == 0 || base.WheelBoundOp == 0 {
				t.Fatalf("8-thread rung counted no wheel work: %+v", base)
			}
			continue
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"region scans", pt.WheelScansOp, base.WheelScansOp},
			{"entries re-filed", pt.WheelRefiledOp, base.WheelRefiledOp},
			{"coarse-slot entries read", pt.WheelSlotOp, base.WheelSlotOp},
			{"polls answered by the bound", pt.WheelBoundOp, base.WheelBoundOp},
		} {
			if math.Abs(c.got-c.want) > 0.01*c.want {
				t.Errorf("%d threads: %s %.4f per op, want within 1%% of the 8-thread rung's %.4f",
					n, c.name, c.got, c.want)
			}
		}
	}
}

// TestC10KReadyQueueCountsFlat is the dispatch leg of the same gate: the
// ready queue's picks and the ring entries its searches compare, per op
// of the dispatch and mutex rungs, must not grow as the population grows
// from 8 to 1,000 threads. A dispatch is one pick from a level the
// bitmap names, so a search of the ring on the dispatch path (a
// membership check, a walk to a thread) would make the scanned count
// grow with the n-8 threads queued below the hot ring.
func TestC10KReadyQueueCountsFlat(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(int) (C10KPoint, error)
	}{{"dispatch", c10kDispatch}, {"mutex", c10kMutex}} {
		var base C10KPoint
		for _, n := range []int{8, 100, 1000} {
			pt, err := sc.run(n)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-8s %5d threads: picks %.4f scanned %.4f per op", sc.name, n, pt.ReadyPicksOp, pt.ReadyScannedOp)
			if n == 8 {
				base = pt
				if sc.name == "dispatch" && base.ReadyPicksOp <= 0 {
					t.Fatalf("8-thread dispatch rung counted no picks: %+v", base)
				}
				continue
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"picks", pt.ReadyPicksOp, base.ReadyPicksOp},
				{"entries scanned", pt.ReadyScannedOp, base.ReadyScannedOp},
			} {
				if math.Abs(c.got-c.want) > 0.01*c.want {
					t.Errorf("%s at %d threads: %s %.4f per op, want within 1%% of the 8-thread rung's %.4f",
						sc.name, n, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestC10KInvariantAcrossLadder holds the virtual half of every c10k
// scenario flat across the ladder: a rung whose vus/op, or whose
// open-loop p50/p99, differs from the first rung of its scenario fails
// RunC10K. Synthetic ladders check that the gate fires on each kind of
// drift and only within a scenario; a real two-rung run must pass it.
func TestC10KInvariantAcrossLadder(t *testing.T) {
	clean := []C10KPoint{
		{Scenario: "dispatch", Threads: 8, VUSOp: 36.7},
		{Scenario: "dispatch", Threads: 100, VUSOp: 36.7},
		{Scenario: "mutex", Threads: 8, VUSOp: 1},
		{Scenario: "mutex", Threads: 100, VUSOp: 1},
		{Scenario: "openloop", Threads: 8, VUSOp: 3, P50VUS: 995.8, P99VUS: 2596.72},
		{Scenario: "openloop", Threads: 100, VUSOp: 3, P50VUS: 995.8, P99VUS: 2596.72},
	}
	if err := c10kInvariant(clean); err != nil {
		t.Fatalf("flat ladder flagged: %v", err)
	}
	for _, tc := range []struct {
		name string
		i    int
		mut  func(*C10KPoint)
	}{
		{"vus", 3, func(p *C10KPoint) { p.VUSOp = 1.01 }},
		{"p50", 5, func(p *C10KPoint) { p.P50VUS = 996 }},
		{"p99", 5, func(p *C10KPoint) { p.P99VUS = 2600 }},
	} {
		pts := append([]C10KPoint(nil), clean...)
		tc.mut(&pts[tc.i])
		if err := c10kInvariant(pts); err == nil {
			t.Errorf("%s drift at rung %d not flagged", tc.name, tc.i)
		}
	}
	if _, err := RunC10K([]int{8, 100}, 1); err != nil {
		t.Fatal(err)
	}
}
