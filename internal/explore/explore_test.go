package explore

import (
	"strings"
	"testing"
)

func TestTokenRoundTrip(t *testing.T) {
	cases := []Schedule{
		{},
		{Decisions: []Decision{{Index: 3, Pick: 0}}},
		{Decisions: []Decision{{Index: 3, Pick: 1}, {Index: 12, Pick: 2}, {Index: 40, Pick: 0}}},
	}
	for _, sch := range cases {
		tok := sch.Token()
		back, err := ParseToken(tok, 1)
		if err != nil {
			t.Fatalf("ParseToken(%q): %v", tok, err)
		}
		if back.Token() != tok {
			t.Fatalf("round trip %q -> %q", tok, back.Token())
		}
	}
	for _, bad := range []string{"", "v2:1/0", "v1:x/0", "v1:1/0,1/0", "v1:5/0,3/1", "v1:1", "v1:-1/0"} {
		if _, err := ParseToken(bad, 1); err == nil {
			t.Errorf("ParseToken(%q) should fail", bad)
		}
	}
}

// TestTokenChecksPerHost holds both spellings to one parser: indices
// increase within a host (not across hosts), nothing trails a number,
// a decision must name a host the target has, and v1: is host 0 of a
// fleet too.
func TestTokenChecksPerHost(t *testing.T) {
	for _, c := range []struct {
		tok   string
		hosts int
		want  string // re-rendered token; "" = must be rejected
	}{
		{"f1:h0/5/0,h0/3/0", 3, ""},
		{"f1:h0/1/0junk", 3, ""},
		{"f1:h9/1/0", 3, ""},
		{"f1:h1/2/0", 1, ""},
		{"f1:1/0", 3, ""},
		{"f1:h0/1", 3, ""},
		{"v1:1/0junk", 1, ""},
		{"f1:h0/5/0,h1/3/0", 3, "f1:h0/5/0,h1/3/0"},
		{"f1:h1/2/0,h0/1/1", 2, "f1:h1/2/0,h0/1/1"},
		{"f1:h0/1/0,h0/3/0", 3, "v1:1/0,3/0"},
		{"v1:3/0", 3, "v1:3/0"},
		{"f1:", 3, "v1:"},
	} {
		sch, err := ParseToken(c.tok, c.hosts)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ParseToken(%q, %d) accepted %s", c.tok, c.hosts, sch.Token())
		case c.want != "" && err != nil:
			t.Errorf("ParseToken(%q, %d): %v", c.tok, c.hosts, err)
		case c.want != "" && sch.Token() != c.want:
			t.Errorf("ParseToken(%q, %d) renders %s, want %s", c.tok, c.hosts, sch.Token(), c.want)
		}
	}
}

// The record/replay contract: replaying a recorded schedule reproduces
// the byte-identical trace, and the replay's own decision log equals the
// schedule it was given.
func TestReplayDeterminism(t *testing.T) {
	w := RacyCounterWorkload(true, 3, 4)
	rec := RunPCT(w, 3, 3, 1000)
	rep1 := Replay(w, rec.Schedule)
	rep2 := Replay(w, rec.Schedule)
	if rep1.TraceHash != rec.TraceHash || rep2.TraceHash != rec.TraceHash {
		t.Fatalf("replay hash mismatch: recorded %s, replays %s / %s",
			rec.TraceHash, rep1.TraceHash, rep2.TraceHash)
	}
	if rep1.Schedule.Token() != rec.Schedule.Token() {
		t.Fatalf("replay decision log %s != recorded %s", rep1.Schedule.Token(), rec.Schedule.Token())
	}
	if rep1.Failure != rec.Failure {
		t.Fatalf("replay failure %q != recorded %q", rep1.Failure, rec.Failure)
	}
}

// With no forced switches the engine must not perturb the run at all
// relative to itself: two default runs hash identically and take zero
// decisions.
func TestDefaultRunStable(t *testing.T) {
	w := PhilosophersWorkload(false, 3, 1)
	a, b := runSchedule(w, nil, nil), runSchedule(w, nil, nil)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("default runs differ: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if a.Schedule.Len() != 0 {
		t.Fatalf("default run took %d decisions", a.Schedule.Len())
	}
	if a.Failure != "" {
		t.Fatalf("fixed philosophers failed by default: %s", a.Failure)
	}
	if len(a.Points) == 0 {
		t.Fatal("default run recorded no switch points")
	}
}

func TestBoundedFindsRacyCounter(t *testing.T) {
	w := RacyCounterWorkload(true, 3, 4)
	r := ExploreBounded(w, Options{Bound: 1, MaxRuns: 500})
	if !r.Found {
		t.Fatalf("bounded search missed the lost update: %+v", r)
	}
	if !strings.Contains(r.Failure, "lost updates") {
		t.Fatalf("unexpected failure: %q", r.Failure)
	}
	min, _ := Shrink(w, r.Schedule)
	if min.Len() != 1 {
		t.Fatalf("shrink left %d decisions (%s), want 1", min.Len(), min.Token())
	}
	out := Replay(w, min)
	if out.Failure == "" {
		t.Fatalf("minimized schedule %s no longer fails", min.Token())
	}
}

func TestBoundedFindsPhilosophersDeadlock(t *testing.T) {
	w := PhilosophersWorkload(true, 3, 1)
	r := ExploreBounded(w, Options{Bound: 2, MaxRuns: 2000, LockOnly: true})
	if !r.Found {
		t.Fatalf("bounded search missed the deadlock: %+v", r)
	}
	if !strings.Contains(r.Failure, "deadlock") {
		t.Fatalf("unexpected failure: %q", r.Failure)
	}
	// The repro must replay to the identical failing trace.
	a, b := Replay(w, r.Schedule), Replay(w, r.Schedule)
	if a.Failure == "" || a.TraceHash != b.TraceHash {
		t.Fatalf("deadlock repro not deterministic: %q, %s vs %s", a.Failure, a.TraceHash, b.TraceHash)
	}
}

func TestBoundedFixedPhilosophersClean(t *testing.T) {
	w := PhilosophersWorkload(false, 3, 1)
	r := ExploreBounded(w, Options{Bound: 2, MaxRuns: 2000, LockOnly: true})
	if r.Found {
		t.Fatalf("fixed philosophers reported a failure: %+v", r)
	}
	if r.Runs >= 2000 {
		t.Fatalf("search did not exhaust the bound-2 space (%d runs)", r.Runs)
	}
}

func TestPCTFindsRacyCounter(t *testing.T) {
	w := RacyCounterWorkload(true, 3, 4)
	r := ExplorePCT(w, Options{Seeds: 20})
	if !r.Found {
		t.Fatalf("PCT sweep missed the lost update: %+v", r)
	}
	// A PCT finding is replayable without the PRNG.
	out := Replay(w, r.Schedule)
	if out.Failure != r.Failure {
		t.Fatalf("PCT repro diverged: %q vs %q", out.Failure, r.Failure)
	}
}

// Preemption bound is honored: every schedule the search runs has at most
// Bound decisions.
func TestBoundHonored(t *testing.T) {
	w := RacyCounterWorkload(true, 2, 2)
	r := ExploreBounded(w, Options{Bound: 1, MaxRuns: 300})
	if r.Found && r.Schedule.Len() > 1 {
		t.Fatalf("bound 1 produced %d preemptions", r.Schedule.Len())
	}
}
