package fabric

import (
	"strings"

	"pthreads/internal/net"
	"pthreads/internal/vtime"
)

// partWindow is one partition window on one wire direction.
type partWindow struct{ from, to vtime.Time }

// wire models one direction of a host pair's link: flat latency, a
// deterministic per-wire loss PRNG (data segments only; a lost segment
// redelivers one RTO later), partition windows that hold or swallow
// traffic, and a FIFO floor so segments never overtake each other. It
// implements net.Wire.
type wire struct {
	delay    vtime.Duration
	rto      vtime.Duration
	lossRate float64
	prng     uint64
	parts    []partWindow
	lastArr  vtime.Time

	// src and dst are the endpoint host ordinals, and to the receiving
	// host; obs, when non-nil, observes every segment for the fleet
	// observability plane (counters and span piggybacking — see obs.go).
	// Observation never changes an arrival instant.
	src, dst int
	to       *Host
	obs      *fleetObs
}

// maxLossRetries bounds redelivery attempts so a Rate of 1.0 degrades
// into a drop instead of an unbounded draw loop.
const maxLossRetries = 64

// Arrival implements net.Wire. The caller schedules the segment on the
// receiver's clock at the returned instant.
func (w *wire) Arrival(dep vtime.Time, bytes int, data bool) (vtime.Time, bool) {
	at := satAdd(dep, w.delay)
	tries := 0
	if data && w.lossRate > 0 {
		for w.randFloat() < w.lossRate {
			tries++
			if tries > maxLossRetries {
				if w.obs != nil {
					w.obs.wireLost(w, tries-1)
				}
				return 0, false
			}
			at = satAdd(at, w.rto)
		}
	}
	// Partition windows, in start order: an arrival landing inside a
	// window is held to its healing instant — which may push it into a
	// later window, handled by the same forward pass.
	held := false
	for _, p := range w.parts {
		if at >= p.from && at < p.to {
			if p.to == vtime.Infinity {
				if w.obs != nil {
					w.obs.wireLost(w, tries)
				}
				return 0, false
			}
			at = p.to
			held = true
		}
	}
	if at < w.lastArr {
		at = w.lastArr // FIFO: never overtake an earlier segment
	}
	w.lastArr = at
	// The segment lands on the parked receiver's wheel at at, so the
	// earliest instant the receiver can act drops to it.
	if at < w.to.eff {
		w.to.eff = at
	}
	if w.obs != nil {
		w.obs.wireDelivered(w, dep, at, bytes, tries, held)
	}
	return at, true
}

// randFloat draws a deterministic uniform [0,1) from the wire's
// splitmix64 stream.
func (w *wire) randFloat() float64 {
	w.prng += 0x9e3779b97f4a7c15
	z := w.prng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// hostRouter implements net.Router for one host: addresses of the form
// "host:addr" resolve to the named peer's stack plus the wire pair
// between the two hosts. Anything else — no colon, an unknown host, or
// the host's own name — falls through to local delivery.
type hostRouter struct{ h *Host }

func (r *hostRouter) Route(addr string) (*net.Stack, string, net.Wire, net.Wire, uint64, bool) {
	i := strings.IndexByte(addr, ':')
	if i < 0 {
		return nil, "", nil, nil, 0, false
	}
	f := r.h.f
	tgt := f.byName[addr[:i]]
	if tgt == nil || tgt == r.h {
		return nil, "", nil, nil, 0, false
	}
	out := f.wires[[2]int{r.h.ID, tgt.ID}]
	back := f.wires[[2]int{tgt.ID, r.h.ID}]
	f.flows++
	if f.obs != nil {
		// Endpoint map for the wait-cycle watchdog: who terminates this
		// flow (see checkWaitCycle).
		f.obs.flowEnds[f.flows] = [2]int{r.h.ID, tgt.ID}
	}
	return tgt.IO.Stack(), addr[i+1:], out, back, f.flows, true
}
