package explore

import (
	"crypto/sha256"
	"encoding/hex"

	"pthreads/internal/core"
	"pthreads/internal/trace"
)

// Workload is a program the engine can run repeatedly under different
// schedules. Make builds it against a fresh system and returns the main
// thread's body plus a check evaluated once Run returns; the check
// reports "" for a clean run or a one-line failure description (the bug
// the exploration is hunting).
type Workload struct {
	Name string
	Desc string
	Make func(sys *core.System) (body func(), check func(runErr error) string)
}

// PointInfo describes one switch point observed past the forced prefix —
// the branch metadata the systematic search extends schedules with.
type PointInfo struct {
	Index  int
	Kind   core.SwitchPoint
	NReady int
}

// RunOutcome is the result of executing a workload under one schedule.
type RunOutcome struct {
	// Failure is the workload check's verdict ("" = clean run).
	Failure string
	// RunErr is the system-level error (deadlock report, fault), if any.
	RunErr error
	// Schedule holds the decisions actually taken — recorded from any
	// policy, it replays the byte-identical run.
	Schedule Schedule
	// Points lists the switch points seen past the forced prefix.
	Points []PointInfo
	// Events is the full trace of the run.
	Events []core.TraceEvent
	// TraceHash fingerprints the rendered trace; equal hashes mean
	// byte-identical traces.
	TraceHash string
}

// chooser decides at switch points past the forced prefix. A nil chooser
// always continues the current thread.
type chooser interface {
	choose(point core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (pick int, preempt bool)
}

// controller implements core.Explorer: it replays the forced prefix,
// delegates later points to the chooser, and records every decision
// taken plus the branch metadata of every point seen.
type controller struct {
	forced  []Decision
	chooser chooser
	idx     int // ordinal of the next switch point
	cursor  int // position in forced
	log     []Decision
	points  []PointInfo
}

// ChooseAt implements core.Explorer.
func (c *controller) ChooseAt(point core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (int, bool) {
	i := c.idx
	c.idx++
	if c.cursor < len(c.forced) {
		d := c.forced[c.cursor]
		if d.Index != i {
			return 0, false // inside the prefix, between decisions: stay
		}
		c.cursor++
		if len(ready) == 0 {
			return 0, false // divergence left nothing to switch to
		}
		pick := d.Pick
		if pick >= len(ready) {
			pick = len(ready) - 1
		}
		c.log = append(c.log, Decision{Index: i, Pick: pick})
		return pick, true
	}
	c.points = append(c.points, PointInfo{Index: i, Kind: point, NReady: len(ready)})
	if c.chooser == nil || len(ready) == 0 {
		return 0, false
	}
	pick, preempt := c.chooser.choose(point, cur, ready)
	if !preempt {
		return 0, false
	}
	if pick < 0 || pick >= len(ready) {
		pick = len(ready) - 1
	}
	c.log = append(c.log, Decision{Index: i, Pick: pick})
	return pick, true
}

// runSchedule executes the workload once: the forced prefix is replayed,
// later points go to the chooser (nil = no further preemptions).
func runSchedule(w Workload, forced []Decision, ch chooser) RunOutcome {
	ctl := &controller{forced: forced, chooser: ch}
	rec := trace.New()
	sys := core.New(core.Config{Explorer: ctl, Tracer: rec})
	body, check := w.Make(sys)
	err := sys.Run(body)
	sum := sha256.Sum256([]byte(rec.Dump()))
	return RunOutcome{
		Failure:   check(err),
		RunErr:    err,
		Schedule:  Schedule{Decisions: ctl.log},
		Points:    ctl.points,
		Events:    rec.Events,
		TraceHash: hex.EncodeToString(sum[:8]),
	}
}

// Replay runs the workload under a recorded schedule. Replaying the
// schedule of a previous run reproduces its byte-identical trace
// (compare TraceHash).
func Replay(w Workload, sch Schedule) RunOutcome {
	return runSchedule(w, sch.Decisions, nil)
}
