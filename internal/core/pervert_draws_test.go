package core

import (
	"fmt"
	"testing"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// The drawn-bits-vs-decisions invariant: every PRNG value the scheduler
// consumes must be applied to the schedule. PR 2 fixed one leak (a coin
// flip on an empty ready queue); this PR fixed another — the dispatch
// restart arc used to discard a random pick (and its consumed draw)
// when a signal landed in the Figure 2 window, re-selecting by plain
// priority and re-enqueuing the pick at the wrong level. prngDraws and
// prngDecisions now count both sides, and the restart arc preserves
// committed picks.

// runRandomAudited runs a compute/lock/signal-heavy workload under
// PervertRandom and returns the audit counters.
func runRandomAudited(t *testing.T, seed int64, alarms int) (draws, decisions int64) {
	t.Helper()
	s := New(Config{Pervert: PervertRandom, Seed: seed})
	err := s.Run(func() {
		s.Sigaction(sigalrm, func(unixkern.Signal, *unixkern.SigInfo, *SigContext) {}, 0)
		for i := 0; i < alarms; i++ {
			// Dense alarms raise the odds that one lands inside the
			// dispatcher's restart window.
			s.Alarm(vtime.Duration(i+1) * 700 * vtime.Microsecond)
		}
		m := s.MustMutex(MutexAttr{Name: "m"})
		var ths []*Thread
		for i := 0; i < 3; i++ {
			attr := DefaultAttr()
			attr.Name = fmt.Sprintf("w%d", i)
			th, _ := s.Create(attr, func(any) any {
				for j := 0; j < 6; j++ {
					m.Lock()
					s.Compute(300 * vtime.Microsecond)
					m.Unlock()
					s.Yield()
				}
				return nil
			}, nil)
			ths = append(ths, th)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s.prngDraws, s.prngDecisions
}

func TestPrngDrawsAllBecomeDecisions(t *testing.T) {
	sawDraws := false
	for seed := int64(1); seed <= 25; seed++ {
		draws, decisions := runRandomAudited(t, seed, 40)
		if draws != decisions {
			t.Fatalf("seed %d: %d PRNG draws but %d applied decisions — a draw leaked without a schedule effect",
				seed, draws, decisions)
		}
		if draws > 0 {
			sawDraws = true
		}
	}
	if !sawDraws {
		t.Fatalf("workload never consumed a PRNG draw; the invariant was vacuous")
	}
}

// TestPrngAuditZeroWithoutPolicy pins that normal runs never touch the
// scheduling PRNG at all.
func TestPrngAuditZeroWithoutPolicy(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		th, _ := s.Create(Attr{}, func(any) any {
			s.Compute(vtime.Millisecond)
			return nil
		}, nil)
		s.Join(th)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if draws, decisions := s.prngDraws, s.prngDecisions; draws != 0 || decisions != 0 {
		t.Fatalf("plain FIFO run consumed PRNG draws: draws=%d decisions=%d", draws, decisions)
	}
}

// TestRandomSwitchStillDeterministicAfterFix re-pins per-seed replay
// determinism of the random policy with the restart-arc preservation in
// place (same seed, same schedule — including runs where alarms landed
// mid-dispatch).
func TestRandomSwitchStillDeterministicAfterFix(t *testing.T) {
	for _, seed := range []int64{7, 42, 1001} {
		a, ad := runRandomAudited(t, seed, 25)
		b, bd := runRandomAudited(t, seed, 25)
		if a != b || ad != bd {
			t.Fatalf("seed %d: audit diverged across identical runs: (%d,%d) vs (%d,%d)", seed, a, ad, b, bd)
		}
	}
}
