package trace

import (
	"fmt"

	"pthreads/internal/core"
)

// SchedValidator is a Tracer that checks the priority-scheduling
// invariant on every dispatch: when a thread starts running, no ready
// thread may hold a strictly higher priority. (The perverted scheduling
// policies intentionally violate this — the paper notes they "may not
// always conform with priority scheduling" — so the validator is for
// plain configurations.)
//
// The fork/join events thread the lifecycle into the state machine: a
// joined thread is finished for good, so any later scheduling event for
// it is a violation (it would mean the kernel resurrected a reaped TCB).
//
// Attach via Config.Tracer, or chain behind a Recorder with Tee.
type SchedValidator struct {
	ready      map[*core.Thread]bool
	joined     map[core.ThreadID]bool
	Violations []string
	// Unknown counts events of kinds the validator does not recognize.
	// Every current kind is recognized (if only as a deliberate no-op);
	// a non-zero count means a new kind was added without teaching the
	// validator about it, and Err reports it instead of dropping it
	// silently.
	Unknown int64
}

// NewSchedValidator returns an empty validator.
func NewSchedValidator() *SchedValidator {
	return &SchedValidator{
		ready:  make(map[*core.Thread]bool),
		joined: make(map[core.ThreadID]bool),
	}
}

// Event implements core.Tracer.
func (v *SchedValidator) Event(ev core.TraceEvent) {
	switch ev.Kind {
	case core.EvState:
		if ev.Thread == nil {
			return
		}
		switch ev.Arg {
		case "ready":
			v.ready[ev.Thread] = true
			v.checkJoined(ev)
		case "running":
			delete(v.ready, ev.Thread)
			v.checkJoined(ev)
			runPrio := ev.Thread.Priority()
			for t := range v.ready {
				if t.Priority() > runPrio {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"at %v: %v dispatched at prio %d while %v ready at %d",
						ev.At, ev.Thread, runPrio, t, t.Priority()))
				}
			}
		case "blocked", "terminated", "created":
			delete(v.ready, ev.Thread)
		}
	case core.EvFork:
		// A forked ID begins a fresh life: TCBs are pooled, so a reused
		// ID is legitimate again after a new fork.
		delete(v.joined, ev.Peer.ID())
	case core.EvJoin:
		v.joined[ev.Peer.ID()] = true
	case core.EvPrio, core.EvMutex, core.EvCond, core.EvSignal,
		core.EvCancel, core.EvUser, core.EvAccess, core.EvIO, core.EvNet:
		// Recognized, no scheduling-state effect.
	default:
		if !ev.Kind.ProfilerOnly() {
			v.Unknown++
		}
	}
}

// checkJoined flags a scheduling event for a thread already reaped by
// Join.
func (v *SchedValidator) checkJoined(ev core.TraceEvent) {
	if v.joined[ev.Thread.ID()] {
		v.Violations = append(v.Violations, fmt.Sprintf(
			"at %v: %v scheduled (%s) after being joined", ev.At, ev.Thread, ev.Arg))
	}
}

// Err returns an error describing the first violations, or nil.
func (v *SchedValidator) Err() error {
	if len(v.Violations) == 0 {
		if v.Unknown > 0 {
			return fmt.Errorf("%d trace events of unknown kind reached the validator", v.Unknown)
		}
		return nil
	}
	n := len(v.Violations)
	show := v.Violations
	if len(show) > 3 {
		show = show[:3]
	}
	return fmt.Errorf("%d priority-scheduling violations, first: %v", n, show)
}

// Tee fans trace events out to several tracers (e.g., a Recorder plus a
// SchedValidator).
type Tee []core.Tracer

// Event implements core.Tracer.
func (tee Tee) Event(ev core.TraceEvent) {
	for _, t := range tee {
		t.Event(ev)
	}
}
