package explore

import (
	"crypto/sha256"
	"encoding/hex"

	"pthreads/internal/core"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// Target is a program the engine can run repeatedly under different
// schedules: a Workload on one host, or a fleet scenario
// (internal/fabric) of several.
type Target interface {
	// Hosts is the number of hosts a run schedules.
	Hosts() int
	// Run executes the program once, host h's system scheduled by
	// explorer(h), and reports the check's verdict and every host's
	// trace; the engine fills in the schedule and switch points.
	Run(explorer func(host int) core.Explorer) RunOutcome
}

// Workload is the one-host target. Make builds it against a fresh
// system and returns the main thread's body plus a check evaluated once
// Run returns; the check reports "" for a clean run or a one-line
// failure description (the bug the exploration is hunting).
type Workload struct {
	Name string
	Desc string
	Make func(sys *core.System) (body func(), check func(runErr error) string)
}

// Hosts implements Target: a workload is host 0.
func (Workload) Hosts() int { return 1 }

// Run implements Target.
func (w Workload) Run(explorer func(host int) core.Explorer) RunOutcome {
	rec := trace.New()
	sys := core.New(core.Config{Explorer: explorer(0), Tracer: rec})
	body, check := w.Make(sys)
	err := sys.Run(body)
	sum := sha256.Sum256([]byte(rec.Dump()))
	return RunOutcome{
		Failure:   check(err),
		RunErr:    err,
		Hosts:     []HostTrace{{Events: rec.Events, End: sys.Clock().Now()}},
		TraceHash: hex.EncodeToString(sum[:8]),
	}
}

// PointInfo describes one switch point observed past the forced prefix —
// the branch metadata the systematic search extends schedules with.
type PointInfo struct {
	Host   int
	Index  int
	Kind   core.SwitchPoint
	NReady int
}

// HostTrace is one host's trace of a run: its name ("" for a
// workload's one host), its events, and its final clock, which closes
// any state interval still open in an export.
type HostTrace struct {
	Name   string
	Events []core.TraceEvent
	End    vtime.Time
}

// RunOutcome is the result of executing a target under one schedule.
type RunOutcome struct {
	// Failure is the target check's verdict ("" = clean run).
	Failure string
	// RunErr is the system-level error (deadlock report, fault), if any.
	RunErr error
	// Schedule holds the decisions actually taken, in execution order —
	// recorded from any policy, it replays the byte-identical run.
	Schedule Schedule
	// Points lists the switch points seen past each host's forced
	// prefix, in execution order.
	Points []PointInfo
	// Hosts holds every host's trace, in host order.
	Hosts []HostTrace
	// TraceHash fingerprints the rendered traces; equal hashes mean
	// byte-identical runs.
	TraceHash string
}

// chooser decides at switch points past a host's forced prefix. A nil
// chooser always continues the current thread.
type chooser interface {
	choose(host int, point core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (pick int, preempt bool)
}

// controller drives one run: it hands each host its own hostExplorer
// and records, in execution order, every decision taken plus the branch
// metadata of every point seen.
type controller struct {
	forced  []Decision
	chooser chooser
	log     []Decision
	points  []PointInfo
}

// hostExplorer is one host's core.Explorer. Switch points are counted
// per host — (host, ordinal) is a decision's stable coordinate, since
// the fleet's turn rule fixes how hosts interleave — so it replays the
// host's own slice of the forced prefix and delegates later points to
// the shared chooser.
type hostExplorer struct {
	c      *controller
	host   int
	forced []Decision
	idx    int // ordinal of the next switch point
}

func (c *controller) forHost(host int) core.Explorer {
	h := &hostExplorer{c: c, host: host}
	for _, d := range c.forced {
		if d.Host == host {
			h.forced = append(h.forced, d)
		}
	}
	return h
}

// ChooseAt implements core.Explorer.
func (h *hostExplorer) ChooseAt(point core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (int, bool) {
	c, i := h.c, h.idx
	h.idx++
	pick, preempt := 0, false
	if len(h.forced) > 0 {
		if h.forced[0].Index != i {
			return 0, false // inside the prefix, between decisions: stay
		}
		pick, preempt = h.forced[0].Pick, true
		h.forced = h.forced[1:]
	} else {
		c.points = append(c.points, PointInfo{Host: h.host, Index: i, Kind: point, NReady: len(ready)})
		if c.chooser != nil && len(ready) > 0 {
			pick, preempt = c.chooser.choose(h.host, point, cur, ready)
		}
	}
	if !preempt || len(ready) == 0 {
		return 0, false // continue; a forced decision whose run diverged may find nothing to switch to
	}
	if pick < 0 || pick >= len(ready) {
		pick = len(ready) - 1
	}
	c.log = append(c.log, Decision{Host: h.host, Index: i, Pick: pick})
	return pick, true
}

// runSchedule executes the target once: the forced prefix is replayed,
// later points go to the chooser (nil = no further preemptions).
func runSchedule(t Target, forced []Decision, ch chooser) RunOutcome {
	c := &controller{forced: forced, chooser: ch}
	out := t.Run(c.forHost)
	out.Schedule, out.Points = Schedule{Decisions: c.log}, c.points
	return out
}

// Replay runs the target under a recorded schedule. Replaying the
// schedule of a previous run reproduces its byte-identical trace
// (compare TraceHash).
func Replay(t Target, sch Schedule) RunOutcome {
	return runSchedule(t, sch.Decisions, nil)
}
