package trace

import (
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// validateWorkload runs a synchronization-heavy priority workload with
// the validator attached and returns its findings.
func validateWorkload(t *testing.T, cfg core.Config) *SchedValidator {
	t.Helper()
	v := NewSchedValidator()
	rec := New()
	cfg.Tracer = Tee{rec, v}
	s := core.New(cfg)
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "m", Protocol: core.ProtocolInherit})
		c := s.NewCond("c")
		tokens := 2
		var ths []*core.Thread
		for i := 0; i < 5; i++ {
			attr := core.DefaultAttr()
			attr.Priority = 8 + 3*i
			th, _ := s.Create(attr, func(any) any {
				for j := 0; j < 6; j++ {
					m.Lock()
					for tokens == 0 {
						c.Wait(m)
					}
					tokens--
					s.Compute(100 * vtime.Microsecond)
					tokens++
					c.Signal()
					m.Unlock()
					s.Sleep(vtime.Duration(200+j*37) * vtime.Microsecond)
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
		t.Fatal(err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("tee starved the recorder")
	}
	return v
}

func TestSchedValidatorCleanOnFIFO(t *testing.T) {
	v := validateWorkload(t, core.Config{})
	if err := v.Err(); err != nil {
		t.Fatalf("priority scheduling violated: %v", err)
	}
}

func TestSchedValidatorCleanOnRR(t *testing.T) {
	v := validateWorkload(t, core.Config{Quantum: vtime.Millisecond})
	if err := v.Err(); err != nil {
		t.Fatalf("priority scheduling violated under RR: %v", err)
	}
}

func TestSchedValidatorFlagsPervertedPolicies(t *testing.T) {
	// The RR-ordered policy deliberately runs lower-priority threads
	// while higher ones are ready; the validator must notice.
	v := validateWorkload(t, core.Config{Pervert: core.PervertRROrdered})
	if v.Err() == nil {
		t.Fatal("validator blind to perverted scheduling")
	}
}

// TestValidatorForkJoinLifecycle pins the fork/join threading of the
// state machine on a real run: a clean create/run/join workload produces
// no violations and no unknown-kind events (every kind the kernel emits
// is recognized), and the join bookkeeping tracks the reaped IDs.
func TestValidatorForkJoinLifecycle(t *testing.T) {
	v := NewSchedValidator()
	s := core.New(core.Config{Tracer: v})
	err := s.Run(func() {
		var ths []*core.Thread
		for i := 0; i < 3; i++ {
			attr := core.DefaultAttr()
			th, _ := s.Create(attr, func(any) any {
				s.Compute(50 * vtime.Microsecond)
				return nil
			}, nil)
			ths = append(ths, th)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("clean workload flagged: %v", err)
	}
	if v.Unknown != 0 {
		t.Fatalf("validator saw %d unknown event kinds; teach it about the new kind", v.Unknown)
	}
	if len(v.joined) == 0 {
		t.Fatal("no joins tracked; EvJoin is not reaching the state machine")
	}
}

// TestValidatorFlagsScheduleAfterJoin feeds a synthetic stream in which
// a joined thread is scheduled again — the resurrection bug the fork/
// join threading exists to catch.
func TestValidatorFlagsScheduleAfterJoin(t *testing.T) {
	// Obtain a real, terminated thread so the pointer-keyed machinery
	// has a live TCB to work with.
	var victim *core.Thread
	s := core.New(core.Config{})
	if err := s.Run(func() {
		victim, _ = s.Create(core.DefaultAttr(), func(any) any { return nil }, nil)
		s.Join(victim)
	}); err != nil {
		t.Fatal(err)
	}

	v := NewSchedValidator()
	v.Event(core.TraceEvent{At: 1, Kind: core.EvJoin, Thread: victim, Peer: victim, Arg: "2", Obj: "w"})
	v.Event(core.TraceEvent{At: 2, Kind: core.EvState, Thread: victim, Arg: "ready"})
	if len(v.Violations) == 0 {
		t.Fatal("scheduling a joined thread went unflagged")
	}

	// A fresh fork of the same ID makes it legitimate again (pooled TCB).
	v2 := NewSchedValidator()
	v2.Event(core.TraceEvent{At: 1, Kind: core.EvJoin, Thread: victim, Peer: victim, Arg: "2", Obj: "w"})
	v2.Event(core.TraceEvent{At: 2, Kind: core.EvFork, Thread: victim, Peer: victim, Arg: "2", Obj: "w"})
	v2.Event(core.TraceEvent{At: 3, Kind: core.EvState, Thread: victim, Arg: "ready"})
	if len(v2.Violations) != 0 {
		t.Fatalf("re-forked ID flagged: %v", v2.Violations)
	}

	// An out-of-range kind counts as unknown instead of dropping.
	v2.Event(core.TraceEvent{At: 4, Kind: core.EventKind(99)})
	if v2.Unknown != 1 {
		t.Fatalf("unknown kind not counted: %d", v2.Unknown)
	}
	if err := v2.Err(); err == nil {
		t.Fatal("Err silent about unknown kinds")
	}
}
