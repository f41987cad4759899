package eval

import (
	"fmt"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/hw"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// Figure 5: dealing with priority inversion. A low-priority thread P1
// locks a mutex; at t1 a medium-priority thread P2 and a high-priority
// thread P3 become ready; P3 tries to lock the same mutex.
//
//	(a) no protocol:  P2 executes while P3 waits — priority inversion;
//	(b) inheritance:  P1 inherits P3's priority, P2 does not run;
//	(c) ceiling:      P1 runs at the ceiling from the lock on, P2 does
//	                  not run, and fewer context switches occur than (b).

// Inversion scenario parameters (virtual time).
const (
	fig5PrioLow  = 5
	fig5PrioMed  = 10
	fig5PrioHigh = 20

	fig5Preamble  = 2 * vtime.Millisecond  // P1 before locking
	fig5T1        = 10 * vtime.Millisecond // P2/P3 release time
	fig5CSLen     = 30 * vtime.Millisecond // P1's critical section
	fig5P2Work    = 40 * vtime.Millisecond // P2's computation
	fig5P3Prelock = 2 * vtime.Millisecond  // P3 before its lock attempt
	fig5P3CSLen   = 5 * vtime.Millisecond  // P3's critical section
	fig5Tail      = 5 * vtime.Millisecond  // P1 after unlocking
)

// Fig5Result is the outcome of one protocol's scenario.
type Fig5Result struct {
	Protocol core.Protocol
	Recorder *trace.Recorder

	// Inverted reports whether P2 ran while P3 was waiting for the
	// mutex — the priority inversion the protocols exist to prevent.
	Inverted bool
	// P3Wait is how long P3 waited from its lock attempt to holding the
	// mutex.
	P3Wait vtime.Duration
	// ContextSwitches is the total for the run (Table 3: the ceiling
	// protocol "tends to require fewer context switches").
	ContextSwitches int64
	// P1BoostedTo is the highest priority P1 reached.
	P1BoostedTo int
}

// RunFigure5 executes the scenario under the given mutex protocol on the
// IPX model.
func RunFigure5(protocol core.Protocol) (*Fig5Result, error) {
	return runFigure5(protocol, nil)
}

// runFigure5 is RunFigure5 with an optional config modifier, the seam
// the profiler uses to attach its collector without disturbing the
// published scenario (mod == nil is byte-identical to RunFigure5).
func runFigure5(protocol core.Protocol, mod func(*core.Config)) (*Fig5Result, error) {
	rec := trace.New()
	cfg := core.Config{
		Machine:      hw.SPARCstationIPX(),
		MainPriority: 31,
		Tracer:       rec,
	}
	if mod != nil {
		mod(&cfg)
	}
	s := core.New(cfg)

	res := &Fig5Result{Protocol: protocol, Recorder: rec}
	var lockReq, lockGot vtime.Time

	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{
			Protocol: protocol,
			Ceiling:  fig5PrioHigh,
			Name:     "M",
		})

		mk := func(name string, prio int, body func()) *core.Thread {
			attr := core.DefaultAttr()
			attr.Name = name
			attr.Priority = prio
			th, err := s.Create(attr, func(any) any { body(); return nil }, nil)
			if err != nil {
				panic(err)
			}
			return th
		}

		p1 := mk("P1", fig5PrioLow, func() {
			s.Compute(fig5Preamble)
			m.Lock()
			s.Tracepoint("p1-locked")
			s.Compute(fig5CSLen)
			m.Unlock()
			s.Tracepoint("p1-unlocked")
			s.Compute(fig5Tail)
		})
		p2 := mk("P2", fig5PrioMed, func() {
			s.Sleep(fig5T1)
			s.Compute(fig5P2Work)
		})
		p3 := mk("P3", fig5PrioHigh, func() {
			s.Sleep(fig5T1)
			s.Compute(fig5P3Prelock)
			lockReq = s.Now()
			m.Lock()
			lockGot = s.Now()
			s.Tracepoint("p3-locked")
			s.Compute(fig5P3CSLen)
			m.Unlock()
		})

		for _, th := range []*core.Thread{p1, p2, p3} {
			if _, err := s.Join(th); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	res.P3Wait = lockGot.Sub(lockReq)
	res.Inverted = rec.RanDuring("P2", trace.Interval{From: lockReq, To: lockGot})
	res.ContextSwitches = s.Stats().ContextSwitches
	res.P1BoostedTo = fig5PrioLow
	if p, ok := rec.MaxPrio("P1"); ok && p > res.P1BoostedTo {
		res.P1BoostedTo = p
	}
	return res, nil
}

// Figure5All runs the three variants.
func Figure5All() (map[core.Protocol]*Fig5Result, error) {
	out := map[core.Protocol]*Fig5Result{}
	for _, p := range []core.Protocol{core.ProtocolNone, core.ProtocolInherit, core.ProtocolCeiling} {
		r, err := RunFigure5(p)
		if err != nil {
			return nil, err
		}
		out[p] = r
	}
	return out, nil
}

// FormatFigure5 renders the three timelines and the Table 3
// quantification.
func FormatFigure5() (string, error) {
	results, err := Figure5All()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	labels := map[core.Protocol]string{
		core.ProtocolNone:    "(a) no protocol — priority inversion",
		core.ProtocolInherit: "(b) priority inheritance",
		core.ProtocolCeiling: "(c) priority ceiling (SRP)",
	}
	for _, p := range []core.Protocol{core.ProtocolNone, core.ProtocolInherit, core.ProtocolCeiling} {
		r := results[p]
		fmt.Fprintf(&b, "Figure 5%s\n", labels[p])
		b.WriteString(r.Recorder.Timeline("M", 76))
		fmt.Fprintf(&b, "  P3 waited %v for the mutex; P2 ran during the wait: %v; context switches: %d\n\n",
			r.P3Wait, r.Inverted, r.ContextSwitches)
	}

	b.WriteString("Table 3 (quantified): properties of the synchronization protocols\n")
	fmt.Fprintf(&b, "  %-22s %-14s %-14s %-14s\n", "", "none", "inheritance", "ceiling (SRP)")
	fmt.Fprintf(&b, "  %-22s %-14v %-14v %-14v\n", "P2 ran (inversion)",
		results[core.ProtocolNone].Inverted, results[core.ProtocolInherit].Inverted, results[core.ProtocolCeiling].Inverted)
	fmt.Fprintf(&b, "  %-22s %-14v %-14v %-14v\n", "P3 wait for mutex",
		results[core.ProtocolNone].P3Wait, results[core.ProtocolInherit].P3Wait, results[core.ProtocolCeiling].P3Wait)
	fmt.Fprintf(&b, "  %-22s %-14d %-14d %-14d\n", "context switches",
		results[core.ProtocolNone].ContextSwitches, results[core.ProtocolInherit].ContextSwitches, results[core.ProtocolCeiling].ContextSwitches)
	fmt.Fprintf(&b, "  %-22s %-14d %-14d %-14d\n", "P1's max priority",
		results[core.ProtocolNone].P1BoostedTo, results[core.ProtocolInherit].P1BoostedTo, results[core.ProtocolCeiling].P1BoostedTo)
	return b.String(), nil
}
