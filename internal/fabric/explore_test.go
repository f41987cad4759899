package fabric

import (
	"reflect"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/explore"
	"pthreads/internal/vtime"
)

// A fleet token is the engine's token: decisions off host 0 are
// qualified by host, and v1: names host 0 of a fleet as of a workload.
func TestFleetTokenRoundTrip(t *testing.T) {
	sc := *FleetScenarioByName("fleet-echo")
	in := explore.Schedule{Decisions: []explore.Decision{
		{Host: 0, Index: 12, Pick: 1},
		{Host: 2, Index: 40, Pick: 0},
	}}
	tok := in.Token()
	if tok != "f1:h0/12/1,h2/40/0" {
		t.Fatalf("token = %q", tok)
	}
	out, err := explore.ParseToken(tok, sc.Hosts())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v", out)
	}
	if v1, err := explore.ParseToken("v1:3/0", sc.Hosts()); err != nil || v1.Decisions[0] != (explore.Decision{Index: 3}) {
		t.Fatalf("v1: token on a fleet: %+v, %v", v1, err)
	}
	if _, err := explore.ParseToken("f1:junk", sc.Hosts()); err == nil {
		t.Fatalf("malformed decision accepted")
	}
	if _, err := explore.ParseToken("f1:h3/1/0", sc.Hosts()); err == nil {
		t.Fatalf("decision on a fourth host of a three-host fleet accepted")
	}
	if empty, err := explore.ParseToken("f1:", sc.Hosts()); err != nil || len(empty.Decisions) != 0 {
		t.Fatalf("empty token: %+v, %v", empty, err)
	}
}

func TestScenariosCleanByDefault(t *testing.T) {
	for _, sc := range FleetScenarios() {
		out := explore.Replay(sc, explore.Schedule{})
		if out.Failure != "" {
			t.Fatalf("%s: unforced run failed: %s", sc.Name, out.Failure)
		}
	}
}

func TestFleetReplayReproduces(t *testing.T) {
	sc := *FleetScenarioByName("fleet-echo")
	a := Observe(sc, ObsConfig{})
	b := Observe(sc, ObsConfig{})
	if a.TraceHash != b.TraceHash || a.Fingerprint != b.Fingerprint {
		t.Fatalf("unforced runs differ: %s/%s vs %s/%s", a.Fingerprint, a.TraceHash, b.Fingerprint, b.TraceHash)
	}
	if r := explore.Replay(sc, explore.Schedule{}); r.TraceHash != a.TraceHash {
		t.Fatalf("Observe's run %s differs from the engine's unforced replay %s", a.TraceHash, r.TraceHash)
	}
}

func TestExploreFindsCrossHostLostWakeup(t *testing.T) {
	sc := *FleetScenarioByName("fleet-lost-wakeup")
	r := explore.ExploreBounded(sc, explore.Options{LockOnly: true, MaxRuns: 500, Bound: 1})
	if !r.Found {
		t.Fatalf("bounded search missed the cross-host lost wakeup: %s", r.String())
	}
	if !strings.Contains(r.Failure, "fleet deadlock") {
		t.Fatalf("unexpected failure: %s", r.Failure)
	}
	// The failing schedule replays to the identical outcome, and the
	// race checker pins the naked flag pair that caused it.
	tok := r.Schedule.Token()
	parsed, err := explore.ParseToken(tok, sc.Hosts())
	if err != nil {
		t.Fatalf("token %q: %v", tok, err)
	}
	o1 := explore.Replay(sc, parsed)
	o2 := explore.Replay(sc, parsed)
	if o1.Failure == "" || o1.TraceHash != o2.TraceHash {
		t.Fatalf("replay did not reproduce: %q hash %s vs %s", o1.Failure, o1.TraceHash, o2.TraceHash)
	}
	races := explore.CheckRaces(o1.Hosts...)
	found := false
	for _, rc := range races {
		if rc.Loc == "ready" && strings.Contains(rc.String(), "snk/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("race checker missed the host-qualified ready-flag race: %v", races)
	}
}

func TestExploreFixedVariantClean(t *testing.T) {
	sc := *FleetScenarioByName("fleet-lost-wakeup-fixed")
	r := explore.ExploreBounded(sc, explore.Options{LockOnly: true, MaxRuns: 60, Bound: 1})
	if r.Found {
		t.Fatalf("fixed variant failed under exploration: %s", r.String())
	}
	out := explore.Replay(sc, explore.Schedule{})
	if races := explore.CheckRaces(out.Hosts...); len(races) != 0 {
		t.Fatalf("fixed variant races: %v", races)
	}
}

func TestBrokenVariantRacesOnCleanSchedule(t *testing.T) {
	// Even when the schedule happens to deliver the wakeup, the naked
	// flag handoff and the cross-host job record are racy: the write on
	// src and the read on snk have no ordering chain.
	out := explore.Replay(*FleetScenarioByName("fleet-lost-wakeup"), explore.Schedule{})
	if out.Failure != "" {
		t.Fatalf("unforced run failed: %s", out.Failure)
	}
	var sawReady, sawJob bool
	races := explore.CheckRaces(out.Hosts...)
	for _, rc := range races {
		switch rc.Loc {
		case "ready":
			sawReady = true
		case "job":
			sawJob = true
			s := rc.String()
			if !strings.Contains(s, "src/") || !strings.Contains(s, "snk/") {
				t.Fatalf("job race is not cross-host: %s", s)
			}
		}
	}
	if !sawReady || !sawJob {
		t.Fatalf("missing races (ready=%v job=%v): %v", sawReady, sawJob, races)
	}
}

// A fleet finding goes through the engine's whole pipeline: a failing
// schedule padded with a decision the bug does not need shrinks back to
// the finding, and the minimized schedule replays to a byte-identical
// failing fleet run.
func TestFleetFindingShrinksAndReplays(t *testing.T) {
	sc := *FleetScenarioByName("fleet-lost-wakeup")
	r := explore.ExploreBounded(sc, explore.Options{Bound: 2, MaxRuns: 200})
	if !r.Found || !strings.Contains(r.Failure, "fleet deadlock") {
		t.Fatalf("kernel-exit search missed the lost wakeup: %s", r.String())
	}
	// Pad with a preemption at the failing run's last switch point that
	// has a thread to switch to: by then the wakeup is already lost.
	var last explore.PointInfo
	for _, pt := range explore.Replay(sc, r.Schedule).Points {
		if pt.NReady > 0 {
			last = pt
		}
	}
	padded := explore.Schedule{Decisions: append(append([]explore.Decision(nil), r.Schedule.Decisions...),
		explore.Decision{Host: last.Host, Index: last.Index})}
	if out := explore.Replay(sc, padded); out.Failure == "" || out.Schedule.Len() != r.Schedule.Len()+1 {
		t.Fatalf("padded schedule %s: took %s, failure %q", padded.Token(), out.Schedule.Token(), out.Failure)
	}
	min, _ := explore.Shrink(sc, padded)
	if min.Token() != r.Schedule.Token() {
		t.Fatalf("shrink of %s gave %s, want %s", padded.Token(), min.Token(), r.Schedule.Token())
	}
	a, b := explore.Replay(sc, min), explore.Replay(sc, min)
	if a.Failure == "" || a.TraceHash != b.TraceHash || a.Schedule.Token() != min.Token() {
		t.Fatalf("minimized %s replays %q, %s vs %s, taking %s", min.Token(), a.Failure, a.TraceHash, b.TraceHash, a.Schedule.Token())
	}
}

// Every fleet run builds its own fabric, so the engine's parallel sweep
// applies to fleets unchanged: the merged result equals a sequential
// sweep's.
func TestFleetParallelBoundedMatchesSequential(t *testing.T) {
	for _, name := range []string{"fleet-lost-wakeup", "fleet-lost-wakeup-fixed"} {
		sc := *FleetScenarioByName(name)
		seq := explore.ExploreBounded(sc, explore.Options{Bound: 1, MaxRuns: 100, Parallel: 1})
		par := explore.ExploreBounded(sc, explore.Options{Bound: 1, MaxRuns: 100, Parallel: 4})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: parallel result diverges\nseq: %+v\npar: %+v", name, seq, par)
		}
	}
}

// With nothing forced, an explored run is the program's own run: the
// empty-schedule replay of every workload and every fleet scenario ends
// every host at the same instant with the same trace hash as the run
// with no explorer attached. Asking the explorer at a lock point must
// charge nothing; only a preemption enters the kernel.
func TestEmptyScheduleReplaysUnexploredRun(t *testing.T) {
	type target struct {
		name string
		explore.Target
	}
	var targets []target
	for _, w := range explore.Workloads(explore.DefaultParams()) {
		targets = append(targets, target{w.Name, w})
	}
	for _, sc := range FleetScenarios() {
		targets = append(targets, target{sc.Name, sc})
	}
	ends := func(o explore.RunOutcome) []vtime.Time {
		var at []vtime.Time
		for _, h := range o.Hosts {
			at = append(at, h.End)
		}
		return at
	}
	for _, tg := range targets {
		plain := tg.Run(func(int) core.Explorer { return nil })
		replay := explore.Replay(tg, explore.Schedule{})
		if plain.TraceHash != replay.TraceHash || !reflect.DeepEqual(ends(plain), ends(replay)) {
			t.Errorf("%s: unexplored run ends at %v (trace %s), empty-schedule replay at %v (trace %s)",
				tg.name, ends(plain), plain.TraceHash, ends(replay), replay.TraceHash)
		}
	}
}
