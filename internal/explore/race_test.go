package explore

import (
	"strings"
	"testing"
)

// The broken counter workload under a racy interleaving: the checker must
// flag "counter" with an empty lockset.
func TestRaceCheckerFlagsBrokenCounter(t *testing.T) {
	w := RacyCounterWorkload(true, 3, 4)
	r := ExploreBounded(w, Options{Bound: 1, MaxRuns: 500})
	if !r.Found {
		t.Fatalf("no failing schedule found: %+v", r)
	}
	out := Replay(w, r.Schedule)
	races := CheckRaces(out.Events)
	if len(races) == 0 {
		t.Fatal("race checker found nothing on a failing interleaving")
	}
	for _, race := range races {
		if race.Loc != "counter" {
			t.Errorf("unexpected race location %q", race.Loc)
		}
		if !race.LocksetEmpty {
			t.Errorf("expected empty lockset: %v", race)
		}
	}
	if !strings.Contains(FormatRaces(races), "no common lock") {
		t.Errorf("report missing lockset verdict:\n%s", FormatRaces(races))
	}
}

// The race exists even on interleavings where the final count happens to
// be right: the HB checker sees it on the default (FIFO) run too, where
// workers run back-to-back with no synchronization on "counter".
func TestRaceCheckerFindsLatentRace(t *testing.T) {
	w := RacyCounterWorkload(true, 3, 4)
	out := runSchedule(w, nil, nil)
	if out.Failure != "" {
		t.Fatalf("default FIFO run should not lose updates: %s", out.Failure)
	}
	if races := CheckRaces(out.Events); len(races) == 0 {
		t.Fatal("latent race invisible to the checker on the default run")
	}
}

// The fixed variant keeps every access inside the lock: no races, on the
// default run and on explored interleavings alike.
func TestRaceCheckerCleanOnFixedCounter(t *testing.T) {
	w := RacyCounterWorkload(false, 3, 4)
	out := runSchedule(w, nil, nil)
	if out.Failure != "" {
		t.Fatalf("fixed workload failed: %s", out.Failure)
	}
	if races := CheckRaces(out.Events); len(races) != 0 {
		t.Fatalf("false positives on the fixed variant:\n%s", FormatRaces(races))
	}
	r := ExploreBounded(w, Options{Bound: 1, MaxRuns: 100})
	if r.Found {
		t.Fatalf("fixed workload lost updates: %+v", r)
	}
}

// Fork/join edges: a child's accesses are ordered against the creator's,
// so a create-then-join round trip with unsynchronized (but HB-ordered)
// accesses is clean.
func TestRaceCheckerForkJoinEdges(t *testing.T) {
	races := CheckRaces(forkJoinTrace(t))
	if len(races) != 0 {
		t.Fatalf("fork/join-ordered accesses misreported:\n%s", FormatRaces(races))
	}
}
