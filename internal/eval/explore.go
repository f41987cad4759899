package eval

import (
	"fmt"
	"strings"

	"pthreads/internal/explore"
)

// The schedule-exploration experiment: where the perverted policies of
// pervert.go surface a latent race by blanket-forcing switches at every
// synchronization point, the exploration engine searches the schedule
// space — systematically under a preemption bound, or randomly with
// PCT-style priorities — and reduces each finding to a minimal replay
// token whose replay reproduces the byte-identical failing trace.

// ExploreResult summarizes one exploration of one workload.
type ExploreResult struct {
	Workload string
	Policy   string
	Found    bool
	Failure  string
	Runs     int
	Token    string // minimized schedule token, if found
	Races    int    // racy access pairs on the failing trace
	Replayed bool   // minimized token reproduced a byte-identical failing trace
}

// RunExplore performs the standard sweep: bounded search over both
// broken workloads (and their fixed variants, which must come back
// clean), with each finding shrunk and replay-verified.
func RunExplore() ([]ExploreResult, error) {
	type job struct {
		w    explore.Workload
		opts explore.Options
	}
	jobs := []job{
		{explore.RacyCounterWorkload(true, 3, 4), explore.Options{Bound: 1, MaxRuns: 500}},
		{explore.RacyCounterWorkload(false, 3, 4), explore.Options{Bound: 1, MaxRuns: 500}},
		{explore.PhilosophersWorkload(true, 3, 1), explore.Options{Bound: 2, MaxRuns: 2000, LockOnly: true}},
		{explore.PhilosophersWorkload(false, 3, 1), explore.Options{Bound: 2, MaxRuns: 2000, LockOnly: true}},
	}
	var results []ExploreResult
	for _, j := range jobs {
		r := explore.ExploreBounded(j.w, j.opts)
		res := ExploreResult{Workload: j.w.Name, Policy: "bounded", Found: r.Found, Runs: r.Runs}
		if r.Found {
			min, _ := explore.Shrink(j.w, r.Schedule)
			a, b := explore.Replay(j.w, min), explore.Replay(j.w, min)
			res.Failure = r.Failure
			res.Token = min.Token()
			res.Races = len(explore.CheckRaces(a.Hosts...))
			res.Replayed = a.Failure != "" && a.TraceHash == b.TraceHash
			if !res.Replayed {
				return nil, fmt.Errorf("minimized schedule %s for %s did not replay deterministically", res.Token, j.w.Name)
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatExplore renders the exploration sweep as a report section.
func FormatExplore() (string, error) {
	results, err := RunExplore()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("## Schedule exploration (bounded-preemption search + replay tokens)\n\n")
	b.WriteString("Systematic search over forced-switch decisions at lock/kernel-exit\n")
	b.WriteString("points; each finding is shrunk to a minimal schedule token and\n")
	b.WriteString("replay-verified against the byte-identical failing trace.\n\n")
	b.WriteString(fmt.Sprintf("%-22s %-8s %-6s %-14s %-6s %s\n",
		"workload", "policy", "runs", "token", "races", "outcome"))
	for _, r := range results {
		token, outcome := "-", "clean"
		races := "-"
		if r.Found {
			token = r.Token
			races = fmt.Sprintf("%d", r.Races)
			outcome = r.Failure
			if r.Replayed {
				outcome += " [replay verified]"
			}
		}
		b.WriteString(fmt.Sprintf("%-22s %-8s %-6d %-14s %-6s %s\n",
			r.Workload, r.Policy, r.Runs, token, races, outcome))
	}
	return b.String(), nil
}
