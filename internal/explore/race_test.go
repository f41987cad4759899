package explore

import (
	"fmt"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/trace"
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
	races := CheckRaces(out.Hosts...)
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
	if races := CheckRaces(out.Hosts...); len(races) == 0 {
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
	if races := CheckRaces(out.Hosts...); len(races) != 0 {
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
	races := CheckRaces(HostTrace{Events: forkJoinTrace(t)})
	if len(races) != 0 {
		t.Fatalf("fork/join-ordered accesses misreported:\n%s", FormatRaces(races))
	}
}

// twoLockTrace runs two threads that each write "x" writes times, each
// thread under its own mutex, named by names ("" leaves it unnamed).
func twoLockTrace(t *testing.T, names [2]string, writes int) []core.TraceEvent {
	t.Helper()
	rec := trace.New()
	sys := core.New(core.Config{Tracer: rec})
	err := sys.Run(func() {
		var ths []*core.Thread
		for i, name := range names {
			m := sys.MustMutex(core.MutexAttr{Name: name})
			attr := core.DefaultAttr()
			attr.Name = fmt.Sprintf("writer%d", i)
			th, _ := sys.Create(attr, func(any) any {
				for j := 0; j < writes; j++ {
					m.Lock()
					sys.NoteWrite("x")
					m.Unlock()
				}
				return nil
			}, nil)
			ths = append(ths, th)
		}
		for _, th := range ths {
			sys.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("two-lock program failed: %v", err)
	}
	return rec.Events
}

// A thread's first access is ordered before another thread's only if
// some edge says so: one write each under unrelated mutexes races.
func TestRaceCheckerFirstAccessUnordered(t *testing.T) {
	races := CheckRaces(HostTrace{Events: twoLockTrace(t, [2]string{"m1", "m2"}, 1)})
	if len(races) != 1 || !races[0].LocksetEmpty {
		t.Fatalf("want one race with no common lock:\n%s", FormatRaces(races))
	}
}

// Two unnamed mutexes share a name, not a lock: neither orders the
// other's critical sections.
func TestRaceCheckerUnnamedMutexesDistinct(t *testing.T) {
	races := CheckRaces(HostTrace{Events: twoLockTrace(t, [2]string{"", ""}, 2)})
	if len(races) != 1 || !races[0].LocksetEmpty {
		t.Fatalf("want one race with no common lock:\n%s", FormatRaces(races))
	}
}
