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
